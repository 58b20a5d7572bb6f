package core

import (
	"fmt"
	"slices"

	"sledzig/internal/bits"
	"sledzig/internal/wifi"
)

// Constraint pins one rate-1/2 mother-coded bit to a value. MotherIndex is
// 0-based within one OFDM symbol's mother stream (2 * N_DBPS bits per
// symbol); the paper's Table II uses the equivalent 1-based positions p_k.
type Constraint struct {
	MotherIndex int
	Value       bits.Bit
}

// Step returns the encoder input step (0-based) whose output carries the
// constrained bit.
func (c Constraint) Step() int { return c.MotherIndex / 2 }

// PaperPosition returns the 1-based coded-bit position p_k as the paper
// tabulates it (valid for rate 1/2 where the transmitted stream equals the
// mother stream).
func (c Constraint) PaperPosition() int { return c.MotherIndex + 1 }

// SymbolConstraints derives, for one OFDM symbol, the mother-stream
// constraints that pin the given data subcarriers to the lowest-power QAM
// ring under the given pipeline convention. The subcarriers must be data
// subcarriers (not pilots or nulls).
func SymbolConstraints(conv wifi.Convention, mode wifi.Mode, dataSubcarriers []int) ([]Constraint, error) {
	if err := mode.Validate(); err != nil {
		return nil, err
	}
	return PinConstraints(conv, mode.Modulation, conv.CodedSlots(mode), dataSubcarriers, wifi.DataIndex)
}

// PinConstraints derives one OFDM symbol's pinning constraints on any
// frame format, sorted by mother index: slots is the format's placement
// table for the mode (see wifi.BuildCodedSlots), and index maps a signed
// subcarrier to its position in the format's data array, or -1 when it is
// not a data subcarrier.
func PinConstraints(conv wifi.Convention, mod wifi.Modulation, slots []uint16, dataSubcarriers []int, index func(int) int) ([]Constraint, error) {
	offsets, values := conv.SignificantOffsetsC(mod)
	if len(offsets) == 0 {
		return nil, fmt.Errorf("core: modulation %v has no pinnable amplitude bits", mod)
	}
	bpsc := mod.BitsPerSubcarrier()
	out := make([]Constraint, 0, len(dataSubcarriers)*len(offsets))
	for _, k := range dataSubcarriers {
		idx := index(k)
		if idx < 0 {
			return nil, fmt.Errorf("core: subcarrier %d is not a data subcarrier", k)
		}
		for i, off := range offsets {
			// idx*bpsc + off is the bit's post-interleaver position.
			out = append(out, Constraint{MotherIndex: int(slots[idx*bpsc+off]), Value: values[i]})
		}
	}
	slices.SortFunc(out, byMotherIndex)
	for i := 1; i < len(out); i++ {
		if out[i].MotherIndex == out[i-1].MotherIndex {
			return nil, fmt.Errorf("core: duplicate constraint at mother index %d", out[i].MotherIndex)
		}
	}
	return out, nil
}

// generatorCoeff returns the (g0, g1) tap coefficients at a delay.
func generatorCoeff(delay int) (g0, g1 bits.Bit) {
	return bits.Bit((wifi.G0Mask >> delay) & 1), bits.Bit((wifi.G1Mask >> delay) & 1)
}
