package wifi

import (
	"fmt"
	mbits "math/bits"

	"sledzig/internal/bits"
	"sledzig/internal/obs/trace"
)

// serviceBits is the length of the SERVICE field that precedes the PSDU in
// the DATA field; tailBits terminate the convolutional coder.
const (
	serviceBits = 16
	tailBits    = 6
)

// Frame is a fully assembled DATA field ready for OFDM modulation: the
// scrambled encoder-input bits plus the bookkeeping needed to modulate and
// to analyze per-subcarrier behaviour.
type Frame struct {
	Mode       Mode
	Convention Convention
	PSDULength int  // LENGTH value signalled in the PLCP header (octets)
	Terminated bool // scrambled tail zeroed (standard) or left intact (SledZig)

	// NumSymbols is the number of DATA OFDM symbols.
	NumSymbols int

	// Trace, when non-nil, receives one child span per synthesis stage
	// (wifi.tx.encode → wifi.tx.interleave → wifi.tx.map → wifi.tx.ifft)
	// when the frame is rendered. A nil Trace costs one nil check per
	// stage.
	Trace *trace.Frame

	// scrambled is the encoder input, N_sym·N_DBPS bits packed eight to
	// an octet in bits.ToBytes order (bit i is bit i%8 of octet i/8).
	// N_DBPS need not be a multiple of 8 (BPSK r3/4 has 36), so the last
	// octet's unused high bits are zero. EncoderInput and ScrambledBits
	// are the only ways in and out.
	scrambled []byte
}

// Transmitter assembles standard 802.11 frames. The zero value is not
// usable; construct with a valid Mode. Seed 0 selects
// DefaultScramblerSeed.
type Transmitter struct {
	Mode Mode
	Seed uint8
	// Convention selects the interleaver/labeling pipeline (see
	// Convention); the zero value is the IEEE-standard chain.
	Convention Convention
}

// NumDataSymbols returns how many OFDM symbols a PSDU of length octets
// occupies in mode m.
func NumDataSymbols(m Mode, length int) int {
	nDBPS := m.DataBitsPerSymbol()
	total := serviceBits + 8*length + tailBits
	return (total + nDBPS - 1) / nDBPS
}

// Frame scrambles SERVICE + PSDU + tail + pad and zeroes the scrambled
// tail, producing the standard encoder input. It scrambles a packed octet
// at a time (ScramblePacked).
func (t Transmitter) Frame(psdu []byte) (*Frame, error) {
	if err := t.Mode.Validate(); err != nil {
		return nil, err
	}
	if len(psdu) < 1 || len(psdu) > maxPSDULength {
		return nil, fmt.Errorf("wifi: PSDU length %d out of range [1, %d]", len(psdu), maxPSDULength)
	}
	seed := t.Seed
	if seed == 0 {
		seed = DefaultScramblerSeed
	}
	nSym := NumDataSymbols(t.Mode, len(psdu))
	total := nSym * t.Mode.DataBitsPerSymbol()

	pass := phy().txScramble.Start()
	x := make([]byte, (total+7)/8)
	copy(x[serviceBits/8:], psdu)
	if err := ScramblePacked(x, total, seed); err != nil {
		pass.End(len(psdu), err)
		return nil, err
	}
	// Zero the scrambled tail so the trellis terminates (17.3.5.3): the
	// low tailBits bits of the octet after the PSDU.
	x[serviceBits/8+len(psdu)] &^= 1<<tailBits - 1
	pass.End(len(psdu), nil)
	return &Frame{
		Mode:       t.Mode,
		Convention: t.Convention,
		PSDULength: len(psdu),
		Terminated: true,
		NumSymbols: nSym,
		scrambled:  x,
	}, nil
}

// dataBits returns N_sym·N_DBPS, the encoder-input length of f, or -1
// when f's mode is invalid.
func (f *Frame) dataBits() int {
	if f.Mode.Validate() != nil {
		return -1
	}
	return f.NumSymbols * f.Mode.DataBitsPerSymbol()
}

// SetPackedBit sets bit i of a stream packed eight to an octet, the
// layout of a Frame's encoder input (bit i is bit i%8 of octet i/8), to
// b's low bit.
func SetPackedBit(x []byte, i int, b bits.Bit) {
	o, k := uint(i)/8, uint(i)%8
	x[o] = x[o]&^(1<<k) | (b&1)<<k
}

// PackedWindow returns EncodeStep's window after input bit n of the
// packed stream x: bits n, n-1, ..., n-6 at bits 0..6, where bits before
// the stream start and past its end read 0.
func PackedWindow(x []byte, n int) uint32 {
	lo := n - (ConstraintLength - 1)
	if lo < 0 { // the register still holds its initial zeros
		return uint32(mbits.Reverse8(uint8(x[0]<<(-lo))&0x7F)) >> 1
	}
	o := uint(lo) / 8
	v := uint32(x[o])
	if o+1 < uint(len(x)) {
		v |= uint32(x[o+1]) << 8
	}
	return uint32(mbits.Reverse8(uint8(v>>(uint(lo)%8))&0x7F)) >> 1
}

// ScramblePacked scrambles the first n bits of the packed stream x in
// place with a fresh scrambler seeded by seed, an octet at a time: eight
// bits of the cached sequence period are XORed onto each data octet. x
// must hold (n+7)/8 octets; its bits past n are cleared, not scrambled.
//
//sledzig:noalloc
func ScramblePacked(x []byte, n int, seed uint8) error {
	if seed == 0 || seed > 0x7F {
		return fmt.Errorf("wifi: scrambler seed %#x out of range [1, 0x7f]", seed)
	}
	if n < 0 || len(x) != (n+7)/8 {
		return fmt.Errorf("wifi: %d octets do not pack %d bits", len(x), n)
	}
	seq, k := scramblerSequence(seed), 0
	for i := range x {
		for b := range 8 {
			x[i] ^= seq[k] << b
			if k++; k == scramblerPeriod {
				k = 0
			}
		}
	}
	if r := n % 8; r != 0 {
		x[len(x)-1] &= 1<<r - 1
	}
	return nil
}

// EncoderInput resizes f's packed encoder input to the N_sym·N_DBPS bits
// of f's NumSymbols and Mode (set them first), reusing its buffer, and
// returns it zeroed for assembly in place; bits past N_sym·N_DBPS in the
// last octet must stay zero.
//
//sledzig:noalloc
func (f *Frame) EncoderInput() ([]byte, error) {
	n := f.dataBits()
	if n < 1 {
		return nil, fmt.Errorf("wifi: no DATA field in %d symbols of %v", f.NumSymbols, f.Mode)
	}
	f.scrambled = grow(f.scrambled, (n+7)/8)
	clear(f.scrambled)
	return f.scrambled, nil
}

// ScrambledBits returns the encoder input, N_sym·N_DBPS bits at one bit
// per element, as a fresh slice. It returns nil for a frame whose stream
// was never set.
func (f *Frame) ScrambledBits() []bits.Bit {
	n := f.dataBits()
	if n < 0 || len(f.scrambled) != (n+7)/8 {
		return nil
	}
	return bits.FromBytes(f.scrambled)[:n]
}

// DataPoints returns the constellation points of every DATA symbol:
// NumSymbols slices of 48 points each, in ascending subcarrier order.
func (f *Frame) DataPoints() ([][]complex128, error) {
	slots, err := f.renderable()
	if err != nil {
		return nil, err
	}
	pts := make([]complex128, f.NumSymbols*NumDataSubcarriers)
	out := make([][]complex128, f.NumSymbols)
	var s txSymbol
	var reg uint32
	for sym := range out {
		out[sym] = pts[sym*NumDataSubcarriers : (sym+1)*NumDataSubcarriers]
		if reg, err = f.renderSymbol(&s, sym, reg, slots, out[sym]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Waveform renders the complete PPDU baseband waveform: preamble, SIGNAL
// symbol, and all DATA symbols at 20 MS/s.
func (f *Frame) Waveform() ([]complex128, error) {
	out := make([]complex128, 0, PreambleLength+(1+f.NumSymbols)*SymbolLength)
	return f.AppendWaveform(out)
}

// txSymbol is one DATA symbol's transmit chain in fixed-size storage:
// its block of the mother code and its interleaved coded bits.
type txSymbol struct {
	mother [2 * 320]bits.Bit // 2·N_DBPS; N_DBPS ≤ 320 (QAM-256 r5/6)
	inter  [384]bits.Bit     // N_CBPS ≤ 384 (QAM-256)
}

// renderable checks that f's packed stream holds its NumSymbols symbols
// of a valid mode and returns the mode's placement table.
func (f *Frame) renderable() ([]uint16, error) {
	slots := f.Convention.CodedSlots(f.Mode)
	if n := f.dataBits(); slots == nil || len(f.scrambled) != (n+7)/8 {
		return nil, fmt.Errorf("wifi: %d scrambled octets are not %d DATA symbols of %v", len(f.scrambled), f.NumSymbols, f.Mode)
	}
	return slots, nil
}

// renderSymbol runs DATA symbol sym's transmit chain into pts (48
// points): encode its N_DBPS bits into s.mother from register state reg
// (wifi.tx.encode), gather its coded bits into s.inter through the
// placement table slots (wifi.tx.interleave), and map them
// (wifi.tx.map). It returns the register state after the symbol.
//
//sledzig:noalloc
func (f *Frame) renderSymbol(s *txSymbol, sym int, reg uint32, slots []uint16, pts []complex128) (uint32, error) {
	nDBPS := f.Mode.DataBitsPerSymbol()
	m := phy()
	mk := f.Trace.Begin(m.txEncode)
	mother := s.mother[:2*nDBPS]
	for i, k := 0, sym*nDBPS; i < nDBPS; {
		// The symbol's bits of one packed octet, oldest first.
		octet := f.scrambled[uint(k)/8] >> (uint(k) % 8)
		n := min(8-k%8, nDBPS-i)
		for range n {
			reg = (reg<<1 | uint32(octet&1)) & 0x7F
			pair := encodeTable[reg]
			mother[2*i], mother[2*i+1] = pair>>1, pair&1
			octet >>= 1
			i++
		}
		k += n
	}
	mk.End(nDBPS/8, nil)

	mk = f.Trace.Begin(m.txInterleave)
	inter := s.inter[:len(slots)]
	for j, slot := range slots {
		inter[j] = mother[slot]
	}
	mk.End(len(inter)/8, nil)

	mk = f.Trace.Begin(m.txMap)
	err := f.Convention.MapAllCInto(f.Mode.Modulation, inter, pts)
	mk.End(len(inter)/8, err)
	return reg, err
}

// AppendWaveform is Waveform in append form: it renders the complete PPDU
// into dst and returns the extended slice, producing samples identical to
// Waveform. Each symbol runs the whole transmit chain in fixed-size
// locals, so a caller that recycles dst's capacity renders frames without
// allocating. On error dst may have been partially extended; discard it.
func (f *Frame) AppendWaveform(dst []complex128) ([]complex128, error) {
	field, err := SignalField(f.Mode, f.PSDULength)
	if err != nil {
		return dst, err
	}
	var sig [NumDataSubcarriers]complex128
	if err := signalPointsInto(sig[:], field[:]); err != nil {
		return dst, err
	}
	return f.appendSymbols(dst, sig[:])
}

// DataWaveform renders only the DATA portion (no preamble, no SIGNAL) —
// what the paper's RSSI experiments measure, since a ZigBee RSSI sample
// integrates over many payload symbols.
func (f *Frame) DataWaveform() ([]complex128, error) {
	out, err := f.AppendDataWaveform(make([]complex128, 0, f.NumSymbols*SymbolLength))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendDataWaveform is DataWaveform in append form: it renders the DATA
// symbols into dst the way AppendWaveform does and returns the extended
// slice. On error dst may have been partially extended; discard it.
func (f *Frame) AppendDataWaveform(dst []complex128) ([]complex128, error) {
	return f.appendSymbols(dst, nil)
}

// appendSymbols renders f's DATA field a symbol at a time and appends
// its OFDM symbols to dst (wifi.tx.ifft). Given the SIGNAL points sig, it
// first appends the preamble and the SIGNAL symbol and counts a
// transmitted frame.
func (f *Frame) appendSymbols(dst []complex128, sig []complex128) ([]complex128, error) {
	slots, err := f.renderable()
	if err != nil {
		return dst, err
	}
	m := phy()
	if sig != nil {
		mk := f.Trace.Begin(m.txIFFT)
		dst = AppendPreamble(dst)
		dst, err = AppendSymbol(dst, sig, 0)
		mk.End(0, err)
	}
	var s txSymbol
	var pts [NumDataSubcarriers]complex128
	var reg uint32
	for sym := 0; err == nil && sym < f.NumSymbols; sym++ {
		if reg, err = f.renderSymbol(&s, sym, reg, slots, pts[:]); err != nil {
			break
		}
		mk := f.Trace.Begin(m.txIFFT)
		dst, err = AppendSymbol(dst, pts[:], sym+1)
		mk.End(0, err)
	}
	if err != nil {
		return dst, err
	}
	symbols := f.NumSymbols
	if sig != nil {
		m.txFrames.Inc()
		symbols++
	}
	m.txSymbols.Add(uint64(symbols))
	return dst, nil
}

// Duration returns the full PPDU airtime in seconds.
func (f *Frame) Duration() float64 {
	samples := PreambleLength + (1+f.NumSymbols)*SymbolLength
	return float64(samples) / SampleRate
}

// PPDUDuration computes the airtime of a PPDU carrying length octets in
// mode m without building the frame.
func PPDUDuration(m Mode, length int) float64 {
	samples := PreambleLength + (1+NumDataSymbols(m, length))*SymbolLength
	return float64(samples) / SampleRate
}
