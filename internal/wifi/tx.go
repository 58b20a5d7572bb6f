package wifi

import (
	"fmt"
	"sync"

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
	// octet's unused high bits are zero. SetScrambledBits and
	// ScrambledBits are the only ways in and out.
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
// at a time: the LFSR is walked eight steps with an output bit mask, and
// its octet is XORed onto the data octet (zero for SERVICE, tail and pad).
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
	s, err := NewScrambler(seed)
	if err != nil {
		pass.End(len(psdu), err)
		return nil, err
	}
	x := make([]byte, (total+7)/8)
	for i := range x {
		var data byte
		if k := i - serviceBits/8; k >= 0 && k < len(psdu) {
			data = psdu[k]
		}
		var seq byte
		for mask := byte(1); mask != 0; mask <<= 1 {
			if s.NextBit() == 1 {
				seq |= mask
			}
		}
		x[i] = data ^ seq
	}
	// Zero the scrambled tail so the trellis terminates (17.3.5.3): the
	// low tailBits bits of the octet after the PSDU.
	x[serviceBits/8+len(psdu)] &^= 1<<tailBits - 1
	// Past N_sym·N_DBPS the last octet holds zeros, not scrambler output.
	if r := total % 8; r != 0 {
		x[len(x)-1] &= 1<<r - 1
	}
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

// SetScrambledBits stores x, the encoder input at one bit per element, as
// f's packed stream, reusing f's buffer when its capacity suffices. x must
// hold N_sym·N_DBPS bits of f's NumSymbols and Mode, so set those first;
// only each element's low bit is kept.
//
//sledzig:noalloc
func (f *Frame) SetScrambledBits(x []bits.Bit) error {
	if n := f.dataBits(); len(x) != n {
		return fmt.Errorf("wifi: %d scrambled bits are not %d DATA symbols of %v", len(x), f.NumSymbols, f.Mode)
	}
	f.scrambled = grow(f.scrambled, (len(x)+7)/8)
	for i := range f.scrambled {
		var octet byte
		for k, b := range x[8*i : min(8*i+8, len(x))] {
			octet |= (b & 1) << k
		}
		f.scrambled[i] = octet
	}
	return nil
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
	s := txScratchPool.Get().(*txScratch)
	defer txScratchPool.Put(s)
	pts := make([]complex128, f.NumSymbols*NumDataSubcarriers)
	if err := f.renderData(s, pts); err != nil {
		return nil, err
	}
	out := make([][]complex128, f.NumSymbols)
	for sym := range out {
		out[sym] = pts[sym*NumDataSubcarriers : (sym+1)*NumDataSubcarriers]
	}
	return out, nil
}

// Waveform renders the complete PPDU baseband waveform: preamble, SIGNAL
// symbol, and all DATA symbols at 20 MS/s.
func (f *Frame) Waveform() ([]complex128, error) {
	out := make([]complex128, 0, PreambleLength+(1+f.NumSymbols)*SymbolLength)
	return f.AppendWaveform(out)
}

// txScratch holds the per-frame intermediate buffers of waveform
// synthesis — the mother-code stream, the interleaved coded bits, and the
// SIGNAL and DATA constellation points — pooled so steady-state rendering
// reuses them across frames.
type txScratch struct {
	mother, inter []bits.Bit
	sig           [NumDataSubcarriers]complex128
	pts           []complex128
}

var txScratchPool = sync.Pool{New: func() any { return new(txScratch) }}

// renderData runs the DATA field's transmit chain into pts (NumSymbols x
// 48 points): convolutional-encode the packed scrambled bits into
// s.mother (wifi.tx.encode), gather each symbol's interleaved coded bits
// from its mother block through the placement table
// (wifi.tx.interleave), and map them (wifi.tx.map).
//
//sledzig:noalloc
func (f *Frame) renderData(s *txScratch, pts []complex128) error {
	slots := f.Convention.CodedSlots(f.Mode)
	n := f.dataBits()
	if slots == nil || len(f.scrambled) != (n+7)/8 {
		return fmt.Errorf("wifi: %d scrambled octets are not %d DATA symbols of %v", len(f.scrambled), f.NumSymbols, f.Mode)
	}
	block := 2 * f.Mode.DataBitsPerSymbol()
	m := phy()
	mk := f.Trace.Begin(m.txEncode)
	s.mother = convolutionalEncodePackedInto(s.mother, f.scrambled, n)
	mk.End(n/8, nil)

	mk = f.Trace.Begin(m.txInterleave)
	s.inter = grow(s.inter, f.NumSymbols*len(slots))
	for sym := 0; sym < f.NumSymbols; sym++ {
		mother, inter := s.mother[sym*block:(sym+1)*block], s.inter[sym*len(slots):]
		for j, slot := range slots {
			inter[j] = mother[slot]
		}
	}
	mk.End(len(s.inter)/8, nil)

	mk = f.Trace.Begin(m.txMap)
	err := f.Convention.MapAllCInto(f.Mode.Modulation, s.inter, pts)
	mk.End(len(s.inter)/8, err)
	return err
}

// AppendWaveform is Waveform in append form: it renders the complete PPDU
// into dst and returns the extended slice, producing samples identical to
// Waveform. Intermediate buffers come from internal pools, so a caller
// that recycles dst's capacity renders frames with a near-constant number
// of allocations regardless of frame size. On error dst may have been
// partially extended; discard it.
func (f *Frame) AppendWaveform(dst []complex128) ([]complex128, error) {
	field, err := SignalField(f.Mode, f.PSDULength)
	if err != nil {
		return dst, err
	}
	s := txScratchPool.Get().(*txScratch)
	defer txScratchPool.Put(s)
	if err := signalPointsInto(s.sig[:], field[:]); err != nil {
		return dst, err
	}
	return f.appendSymbols(s, dst, true)
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
// symbols into dst through the pooled buffers AppendWaveform uses, and
// returns the extended slice. On error dst may have been partially
// extended; discard it.
func (f *Frame) AppendDataWaveform(dst []complex128) ([]complex128, error) {
	s := txScratchPool.Get().(*txScratch)
	defer txScratchPool.Put(s)
	return f.appendSymbols(s, dst, false)
}

// appendSymbols renders f's DATA field through s and appends its OFDM
// symbols to dst (wifi.tx.ifft). A ppdu render first appends the
// preamble and the SIGNAL symbol of s.sig, which the caller has filled,
// and counts a transmitted frame.
func (f *Frame) appendSymbols(s *txScratch, dst []complex128, ppdu bool) ([]complex128, error) {
	s.pts = grow(s.pts, f.NumSymbols*NumDataSubcarriers)
	if err := f.renderData(s, s.pts); err != nil {
		return dst, err
	}
	m := phy()
	mk := f.Trace.Begin(m.txIFFT)
	var err error
	if ppdu {
		dst = AppendPreamble(dst)
		dst, err = AppendSymbol(dst, s.sig[:], 0)
	}
	for sym := 0; err == nil && sym < f.NumSymbols; sym++ {
		dst, err = AppendSymbol(dst, s.pts[sym*NumDataSubcarriers:(sym+1)*NumDataSubcarriers], sym+1)
	}
	mk.End(0, err)
	if err != nil {
		return dst, err
	}
	symbols := f.NumSymbols
	if ppdu {
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
