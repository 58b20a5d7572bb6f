package ht40

import (
	"cmp"
	"fmt"

	"sledzig/internal/bits"
	"sledzig/internal/core"
	"sledzig/internal/wifi"
)

// SledZig on 40 MHz: the 20 MHz pipeline on the HT numerology. The plan
// pins the overlapped subcarriers through the 40 MHz placement table
// (core.PinConstraints) and keeps their two-symbol tile (core.NewTile),
// and core assembles and strips the frames on it (core.AssembleBits,
// core.StripPayload); only the numerology, the renderer and the
// demodulator are specific to 40 MHz.

const (
	serviceBits  = 16
	tailBits     = 6
	headerOctets = 2
)

// Plan holds the per-symbol constraints for one (convention, mode,
// channel) triple on the 40 MHz format.
type Plan struct {
	Convention wifi.Convention
	Mode       wifi.Mode
	Channel    Channel

	// slots is the mode's placement table on the 40 MHz numerology (see
	// wifi.BuildCodedSlots).
	slots       []uint16
	constraints []core.Constraint
	// tile is the extra-bit layout every frame walks.
	tile *core.Tile
}

// NewPlan derives the plan.
func NewPlan(conv wifi.Convention, mode wifi.Mode, ch Channel) (*Plan, error) {
	if !ch.Valid() {
		return nil, fmt.Errorf("ht40: invalid channel %d", int(ch))
	}
	if err := mode.Validate(); err != nil {
		return nil, err
	}
	slots := codedSlots(conv, mode)
	cs, err := core.PinConstraints(conv, mode.Modulation, slots, ch.DataSubcarriersIn(), dataIndex)
	if err != nil {
		return nil, err
	}
	tile, err := core.NewTile(cs, DataBitsPerSymbol(mode))
	if err != nil {
		return nil, err
	}
	return &Plan{Convention: conv, Mode: mode, Channel: ch, slots: slots, constraints: cs, tile: tile}, nil
}

// codedSlots builds the placement table of a valid mode on the 40 MHz
// numerology (see wifi.BuildCodedSlots).
func codedSlots(conv wifi.Convention, mode wifi.Mode) []uint16 {
	slots := make([]uint16, CodedBitsPerSymbol(mode))
	wifi.BuildCodedSlots(slots, mode.CodeRate, func(j int) int { return deinterleaveIndexC(conv, mode.Modulation, j) })
	return slots
}

// ExtraBitsPerSymbol is the per-symbol overhead.
func (p *Plan) ExtraBitsPerSymbol() int { return len(p.constraints) }

// ThroughputLossFraction is the Table IV metric on the 40 MHz format.
func (p *Plan) ThroughputLossFraction() float64 {
	return float64(len(p.constraints)) / float64(DataBitsPerSymbol(p.Mode))
}

// Frame is an encoded 40 MHz DATA field.
type Frame struct {
	Plan       *Plan
	NumSymbols int
	// ScrambledBits is the encoder input.
	ScrambledBits []bits.Bit
}

// Encoder builds SledZig frames on the 40 MHz format.
type Encoder struct {
	Plan *Plan
	Seed uint8
}

// NumSymbols returns the frame size for a payload length.
func (e *Encoder) NumSymbols(length int) int {
	eff := DataBitsPerSymbol(e.Plan.Mode) - e.Plan.ExtraBitsPerSymbol()
	needed := serviceBits + 8*(headerOctets+length) + tailBits
	return (needed + eff - 1) / eff
}

// Encode assembles the frame carrying payload.
func (e *Encoder) Encode(payload []byte) (*Frame, error) {
	if e.Plan == nil {
		return nil, fmt.Errorf("ht40: encoder has no plan")
	}
	if len(payload) == 0 || len(payload) > 0xFFFF {
		return nil, fmt.Errorf("ht40: payload length %d out of range", len(payload))
	}
	nSym := e.NumSymbols(len(payload))
	x, err := core.AssembleBits(e.Plan.tile, nSym, payload, e.Seed)
	if err != nil {
		return nil, err
	}
	return &Frame{Plan: e.Plan, NumSymbols: nSym, ScrambledBits: x}, nil
}

// DataPoints returns per-symbol constellation points.
func (f *Frame) DataPoints() ([][]complex128, error) {
	mother := wifi.ConvolutionalEncode(f.ScrambledBits)
	block := 2 * DataBitsPerSymbol(f.Plan.Mode)
	if len(mother)%block != 0 {
		return nil, fmt.Errorf("ht40: coded length %d not whole symbols", len(mother))
	}
	out := make([][]complex128, 0, f.NumSymbols)
	inter := make([]bits.Bit, len(f.Plan.slots))
	for off := 0; off < len(mother); off += block {
		for j, slot := range f.Plan.slots {
			inter[j] = mother[off+int(slot)]
		}
		pts := make([]complex128, NumDataSubcarriers)
		if err := f.Plan.Convention.MapAllCInto(f.Plan.Mode.Modulation, inter, pts); err != nil {
			return nil, err
		}
		out = append(out, pts)
	}
	return out, nil
}

// Waveform renders the DATA field at 40 MS/s.
func (f *Frame) Waveform() ([]complex128, error) {
	ptsPerSym, err := f.DataPoints()
	if err != nil {
		return nil, err
	}
	out := make([]complex128, 0, len(ptsPerSym)*SymbolLength)
	for s, pts := range ptsPerSym {
		freq, err := SubcarrierMap(pts, s+1)
		if err != nil {
			return nil, err
		}
		out = append(out, TimeDomain(freq)...)
	}
	return out, nil
}

// Decode inverts Encode from a symbol-aligned DATA waveform: demodulate,
// scatter into the mother-code stream through the plan's placement table,
// Viterbi, descramble, strip the extra bits and the length header. Strip
// failures wrap core.ErrExtraBitLayout. The
// mode, channel and convention must be known (a full HT receiver would
// read them from the HT-SIG field).
func Decode(conv wifi.Convention, mode wifi.Mode, ch Channel, wave []complex128, seed uint8) ([]byte, error) {
	if len(wave)%SymbolLength != 0 {
		return nil, fmt.Errorf("ht40: waveform of %d samples is not whole symbols", len(wave))
	}
	nSym := len(wave) / SymbolLength
	if nSym == 0 {
		return nil, fmt.Errorf("ht40: empty waveform")
	}
	plan, err := NewPlan(conv, mode, ch)
	if err != nil {
		return nil, err
	}
	block := 2 * DataBitsPerSymbol(mode)
	mother := make([]int8, nSym*block) // 0: erased until scattered
	demapped := make([]bits.Bit, len(plan.slots))
	for s := 0; s < nSym; s++ {
		freq, err := FrequencyDomain(wave[s*SymbolLength : (s+1)*SymbolLength])
		if err != nil {
			return nil, err
		}
		pts, err := ExtractSubcarriers(freq)
		if err != nil {
			return nil, err
		}
		if err := conv.DemapAllCInto(demapped, mode.Modulation, pts); err != nil {
			return nil, err
		}
		for j, slot := range plan.slots {
			mother[s*block+int(slot)] = 1 - 2*int8(demapped[j])
		}
	}
	scrambled, err := wifi.ViterbiDecodeInto(nil, mother, false)
	if err != nil {
		return nil, err
	}
	dataBits, err := wifi.ScrambleWithSeed(scrambled, cmp.Or(seed, wifi.DefaultScramblerSeed))
	if err != nil {
		return nil, err
	}
	payload, err := core.StripPayload(dataBits, plan.tile, nSym)
	if err != nil {
		return nil, fmt.Errorf("ht40: %w", err)
	}
	return payload, nil
}

// OverheadRow is the 40 MHz analogue of the paper's Tables III/IV rows.
type OverheadRow struct {
	Mode          wifi.Mode
	Channel       Channel
	BitsPerSymbol int
	ExtraBits     int
	LossFraction  float64
}

// OverheadTable computes extra-bit counts and throughput loss for every
// paper mode across representative 40 MHz channels (a pilot-free one and
// a pilot-bearing one).
func OverheadTable(conv wifi.Convention) ([]OverheadRow, error) {
	rows := make([]OverheadRow, 0, 2*len(wifi.PaperModes()))
	for _, mode := range wifi.PaperModes() {
		for _, ch := range []Channel{Channel(2), Channel(5)} {
			plan, err := NewPlan(conv, mode, ch)
			if err != nil {
				return nil, fmt.Errorf("ht40: %v %v: %w", mode, ch, err)
			}
			rows = append(rows, OverheadRow{
				Mode:          mode,
				Channel:       ch,
				BitsPerSymbol: DataBitsPerSymbol(mode),
				ExtraBits:     plan.ExtraBitsPerSymbol(),
				LossFraction:  plan.ThroughputLossFraction(),
			})
		}
	}
	return rows, nil
}
