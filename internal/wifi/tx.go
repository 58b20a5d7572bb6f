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

	// ScrambledBits is the encoder input: N_sym * N_DBPS bits.
	ScrambledBits []bits.Bit
	// NumSymbols is the number of DATA OFDM symbols.
	NumSymbols int

	// Trace, when non-nil, receives one child span per synthesis stage
	// (wifi.tx.encode → wifi.tx.interleave → wifi.tx.map → wifi.tx.ifft)
	// when the frame is rendered. A nil Trace costs one nil check per
	// stage.
	Trace *trace.Frame
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
// tail, producing the standard encoder input.
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

	logical := make([]bits.Bit, total) // zeros: SERVICE, tail, pad prefilled
	copy(logical[serviceBits:], bits.FromBytes(psdu))

	pass := phy().txScramble.Start()
	scrambled, err := ScrambleWithSeed(logical, seed)
	pass.End(len(psdu), err)
	if err != nil {
		return nil, err
	}
	// Zero the scrambled tail so the trellis terminates (17.3.5.3).
	tailStart := serviceBits + 8*len(psdu)
	for i := tailStart; i < tailStart+tailBits; i++ {
		scrambled[i] = 0
	}
	return &Frame{
		Mode:          t.Mode,
		Convention:    t.Convention,
		PSDULength:    len(psdu),
		Terminated:    true,
		ScrambledBits: scrambled,
		NumSymbols:    nSym,
	}, nil
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
// 48 points): convolutional-encode the scrambled bits into s.mother
// (wifi.tx.encode), gather each symbol's interleaved coded bits from its
// mother block through the placement table (wifi.tx.interleave), and map
// them (wifi.tx.map).
//
//sledzig:noalloc
func (f *Frame) renderData(s *txScratch, pts []complex128) error {
	slots := f.Convention.CodedSlots(f.Mode)
	block := 2 * f.Mode.DataBitsPerSymbol()
	if slots == nil || 2*len(f.ScrambledBits) != f.NumSymbols*block {
		return fmt.Errorf("wifi: %d scrambled bits are not %d DATA symbols of %v", len(f.ScrambledBits), f.NumSymbols, f.Mode)
	}
	m := phy()
	mk := f.Trace.Begin(m.txEncode)
	s.mother = convolutionalEncodeInto(s.mother, f.ScrambledBits)
	mk.End(len(f.ScrambledBits)/8, nil)

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
	s.pts = grow(s.pts, f.NumSymbols*NumDataSubcarriers)
	if err := f.renderData(s, s.pts); err != nil {
		return dst, err
	}

	m := phy()
	mk := f.Trace.Begin(m.txIFFT)
	dst = AppendPreamble(dst)
	dst, err = AppendSymbol(dst, s.sig[:], 0)
	for sym := 0; err == nil && sym < f.NumSymbols; sym++ {
		dst, err = AppendSymbol(dst, s.pts[sym*NumDataSubcarriers:(sym+1)*NumDataSubcarriers], sym+1)
	}
	mk.End(0, err)
	if err != nil {
		return dst, err
	}
	m.txFrames.Inc()
	m.txSymbols.Add(uint64(1 + f.NumSymbols))
	return dst, nil
}

// DataWaveform renders only the DATA portion (no preamble, no SIGNAL) —
// what the paper's RSSI experiments measure, since a ZigBee RSSI sample
// integrates over many payload symbols.
func (f *Frame) DataWaveform() ([]complex128, error) {
	dataPts, err := f.DataPoints()
	if err != nil {
		return nil, err
	}
	m := phy()
	mk := f.Trace.Begin(m.txIFFT)
	out := make([]complex128, 0, f.NumSymbols*SymbolLength)
	for s := 0; err == nil && s < len(dataPts); s++ {
		out, err = AppendSymbol(out, dataPts[s], s+1)
	}
	mk.End(0, err)
	if err != nil {
		return nil, err
	}
	m.txSymbols.Add(uint64(f.NumSymbols))
	return out, nil
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
