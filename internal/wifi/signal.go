package wifi

import (
	"fmt"

	"sledzig/internal/bits"
)

// The SIGNAL field (PLCP header) is one BPSK rate-1/2 OFDM symbol carrying
// RATE (4 bits), a reserved bit, LENGTH (12 bits, LSB first), even parity,
// and six tail bits. It is convolutionally coded and interleaved but not
// scrambled. The SledZig receiver reads modulation and coding rate from
// here (paper section IV-G).

// rateCode returns the 4-bit RATE field for a mode. The 802.11a codes cover
// BPSK through QAM-64 3/4; the remaining combinations the paper evaluates
// (QAM-64 5/6, QAM-256 3/4 and 5/6) are assigned to code points unused by
// the standard so that the full paper sweep is self-describing on the air.
func rateCode(m Mode) (uint8, error) {
	switch m {
	case Mode{BPSK, Rate12}:
		return 0b1101, nil
	case Mode{BPSK, Rate34}:
		return 0b1111, nil
	case Mode{QPSK, Rate12}:
		return 0b0101, nil
	case Mode{QPSK, Rate34}:
		return 0b0111, nil
	case Mode{QAM16, Rate12}:
		return 0b1001, nil
	case Mode{QAM16, Rate34}:
		return 0b1011, nil
	case Mode{QAM64, Rate23}:
		return 0b0001, nil
	case Mode{QAM64, Rate34}:
		return 0b0011, nil
	// Extensions beyond 802.11a (see doc comment).
	case Mode{QAM64, Rate56}:
		return 0b0010, nil
	case Mode{QAM256, Rate34}:
		return 0b0100, nil
	case Mode{QAM256, Rate56}:
		return 0b0110, nil
	case Mode{QAM16, Rate23}:
		return 0b1000, nil
	case Mode{QAM256, Rate23}:
		return 0b1010, nil
	}
	return 0, fmt.Errorf("wifi: no RATE code for mode %v", m)
}

// modeByRateCode inverts rateCode as a lookup table, built once at init —
// the receiver consults it on every frame's SIGNAL field.
var modeByRateCode = func() (t [16]struct {
	mode Mode
	ok   bool
}) {
	for _, m := range allModes() {
		if c, err := rateCode(m); err == nil && !t[c].ok {
			t[c].mode, t[c].ok = m, true
		}
	}
	return
}()

// modeFromRateCode inverts rateCode.
func modeFromRateCode(code uint8) (Mode, error) {
	if int(code) < len(modeByRateCode) && modeByRateCode[code].ok {
		return modeByRateCode[code].mode, nil
	}
	return Mode{}, fmt.Errorf("wifi: unknown RATE code %#04b", code)
}

func allModes() []Mode {
	mods := []Modulation{BPSK, QPSK, QAM16, QAM64, QAM256}
	rates := []CodeRate{Rate12, Rate23, Rate34, Rate56}
	out := make([]Mode, 0, len(mods)*len(rates))
	for _, m := range mods {
		for _, r := range rates {
			out = append(out, Mode{m, r})
		}
	}
	return out
}

// maxPSDULength is the largest LENGTH value the 12-bit field can carry.
const maxPSDULength = 4095

// MaxPSDULength is the largest PSDU LENGTH the SIGNAL field can signal —
// the upper bound on any single frame's payload.
const MaxPSDULength = maxPSDULength

// SignalField encodes the 24 SIGNAL bits for a mode and PSDU length in
// bytes.
func SignalField(m Mode, length int) ([24]bits.Bit, error) {
	var f [24]bits.Bit
	if length < 1 || length > maxPSDULength {
		return f, fmt.Errorf("wifi: PSDU length %d out of range [1, %d]", length, maxPSDULength)
	}
	code, err := rateCode(m)
	if err != nil {
		return f, err
	}
	// f[4] (reserved) and the tail f[18:24] stay zero.
	for i := 0; i < 4; i++ { // RATE, MSB first (R1..R4)
		f[i] = bits.Bit(code>>(3-i)) & 1
	}
	for i := 0; i < 12; i++ { // LENGTH, LSB first
		f[5+i] = bits.Bit(length>>i) & 1
	}
	f[17] = bits.Parity(f[:17]) // even parity over bits 0..16
	return f, nil
}

// ParseSignalField decodes a 24-bit SIGNAL field, validating parity.
func ParseSignalField(b []bits.Bit) (Mode, int, error) {
	if len(b) != 24 {
		return Mode{}, 0, fmt.Errorf("wifi: SIGNAL field must be 24 bits, got %d", len(b))
	}
	if bits.Parity(b[:18]) != 0 {
		return Mode{}, 0, fmt.Errorf("wifi: SIGNAL parity check failed")
	}
	mode, err := modeFromRateCode(uint8(bits.ToUint(b[:4])))
	if err != nil {
		return Mode{}, 0, err
	}
	length := 0
	for i := 0; i < 12; i++ {
		length |= int(b[5+i]&1) << i
	}
	if length == 0 {
		return Mode{}, 0, fmt.Errorf("wifi: SIGNAL declares zero-length PSDU")
	}
	return mode, length, nil
}

// signalMode is the fixed BPSK rate-1/2 transmission mode of the SIGNAL
// symbol.
var signalMode = Mode{BPSK, Rate12}

// EncodeSignalSymbol produces the 48 constellation points of the SIGNAL
// OFDM symbol.
func EncodeSignalSymbol(m Mode, length int) ([]complex128, error) {
	field, err := SignalField(m, length)
	if err != nil {
		return nil, err
	}
	return SignalPoints(field[:])
}

// SignalPoints maps a raw 24-bit SIGNAL field to the 48 BPSK points of its
// OFDM symbol. It does not check the field's content (RATE, parity,
// LENGTH), so it also builds the malformed SIGNAL symbols of tests.
func SignalPoints(field []bits.Bit) ([]complex128, error) {
	pts := make([]complex128, NumDataSubcarriers)
	if err := signalPointsInto(pts, field); err != nil {
		return nil, err
	}
	return pts, nil
}

// signalPointsInto is SignalPoints writing into dst (48 points): encode
// the field into its 48-bit mother block, gather it through the IEEE
// BPSK r=1/2 placement table, map.
func signalPointsInto(dst []complex128, field []bits.Bit) error {
	if len(field) != 24 {
		return fmt.Errorf("wifi: SIGNAL field must be 24 bits, got %d", len(field))
	}
	var mother, inter [NumDataSubcarriers]bits.Bit
	convolutionalEncodeInto(mother[:], field)
	for j, slot := range ConventionIEEE.CodedSlots(signalMode) {
		inter[j] = mother[slot]
	}
	return ConventionIEEE.MapAllCInto(signalMode.Modulation, inter[:], dst)
}

// DecodeSignalSymbol inverts EncodeSignalSymbol from received points.
func DecodeSignalSymbol(pts []complex128) (Mode, int, error) {
	if len(pts) != NumDataSubcarriers {
		return Mode{}, 0, fmt.Errorf("wifi: SIGNAL symbol has %d points, want %d", len(pts), NumDataSubcarriers)
	}
	var rx [NumDataSubcarriers]bits.Bit
	if err := ConventionIEEE.DemapAllCInto(rx[:], signalMode.Modulation, pts); err != nil {
		return Mode{}, 0, err
	}
	return (&rxScratch{symBits: rx[:]}).decodeSignal()
}

// decodeSignal decodes the SIGNAL field from s.symBits, the symbol's 48
// demapped BPSK bits in mapper order: scatter them into s.mother through
// the IEEE BPSK r=1/2 placement table (rate 1/2 punctures none), run the
// terminated Viterbi into s.scrambled, and parse.
func (s *rxScratch) decodeSignal() (Mode, int, error) {
	s.mother = grow(s.mother, NumDataSubcarriers)
	scatterBits(s.mother, s.symBits, ConventionIEEE.CodedSlots(signalMode))
	var err error
	s.scrambled, err = decode(&s.viterbi, s.scrambled, s.mother, true, wordHardACS)
	if err != nil {
		return Mode{}, 0, err
	}
	return ParseSignalField(s.scrambled)
}
