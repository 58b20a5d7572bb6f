package wifi

import (
	"fmt"

	"sledzig/internal/bits"
)

// Convention selects between two self-consistent bit-to-constellation
// pipelines:
//
//   - ConventionIEEE follows 802.11 to the letter: the standard's
//     interleaver permutation direction and its axis-split Gray labeling
//     (first half of each bit group on I, second half on Q).
//   - ConventionPaper reproduces the SledZig authors' USRP implementation,
//     reverse-engineered from the paper's Table II: the interleaver
//     permutations applied in the inverse direction, and LTE-style QAM
//     labeling (I/Q bits interleaved, sign bits first, amplitude bits
//     after), which puts the significant bits at group offsets {2,3,...}.
//
// Both conventions are valid transceiver designs; SledZig works
// identically under either. Table II of the paper is reproduced exactly
// under ConventionPaper.
type Convention int

// The two supported conventions.
const (
	ConventionIEEE Convention = iota
	ConventionPaper
)

// String names the convention.
func (c Convention) String() string {
	switch c {
	case ConventionIEEE:
		return "IEEE"
	case ConventionPaper:
		return "Paper"
	default:
		return fmt.Sprintf("Convention(%d)", int(c))
	}
}

// InterleaveIndexC maps a coded-bit index to its post-interleaving
// position under the convention.
func (c Convention) InterleaveIndexC(m Modulation, k int) int {
	if c == ConventionPaper {
		return DeinterleaveIndex(m, k)
	}
	return InterleaveIndex(m, k)
}

// DeinterleaveIndexC inverts InterleaveIndexC.
func (c Convention) DeinterleaveIndexC(m Modulation, j int) int {
	if c == ConventionPaper {
		return InterleaveIndex(m, j)
	}
	return DeinterleaveIndex(m, j)
}

// DeinterleaveC inverts the convention's interleaver on one OFDM symbol
// of coded bits.
func (c Convention) DeinterleaveC(m Modulation, in []bits.Bit) ([]bits.Bit, error) {
	nCBPS := NumDataSubcarriers * m.BitsPerSubcarrier()
	if len(in) != nCBPS {
		return nil, fmt.Errorf("wifi: deinterleave input length %d != N_CBPS %d for %v", len(in), nCBPS, m)
	}
	out := make([]bits.Bit, nCBPS)
	for j, b := range in {
		out[c.DeinterleaveIndexC(m, j)] = b
	}
	return out, nil
}

// MapAllCInto maps an interleaved bit stream under the convention into
// dst, one normalized constellation point per N_BPSC bits: dst must hold
// len(in)/N_BPSC points. It allocates nothing.
//
//sledzig:noalloc
func (c Convention) MapAllCInto(m Modulation, in []bits.Bit, dst []complex128) error {
	t := c.table(m)
	if t == nil {
		return fmt.Errorf("wifi: invalid modulation %d", int(m))
	}
	bpsc := m.BitsPerSubcarrier()
	if len(in)%bpsc != 0 {
		return fmt.Errorf("wifi: bit stream length %d not a multiple of N_BPSC %d", len(in), bpsc)
	}
	if len(dst) != len(in)/bpsc {
		return fmt.Errorf("wifi: map destination length %d != %d points", len(dst), len(in)/bpsc)
	}
	for i := range dst {
		var lab [2]uint8
		for b, bit := range in[i*bpsc : (i+1)*bpsc] {
			p := t.place[b]
			lab[p.axis] |= (bit & 1) << p.shift
		}
		dst[i] = complex(t.axes[0].value[lab[0]], t.axes[1].value[lab[1]])
	}
	return nil
}

// SignificantOffsetsC returns the bit offsets within one constellation
// point's group that pin it to the lowest-power ring, with the required
// values, under the convention; nil for an invalid modulation. These are
// the label bits equal at levels -1 and +1, every bit but the two signs:
// the 2/4/6 per point of the paper's Table I. The slices are built
// once at package init and shared by every caller: they must not be
// modified.
//
//sledzig:noalloc
func (c Convention) SignificantOffsetsC(m Modulation) (offsets []int, values []bits.Bit) {
	t := c.table(m)
	if t == nil {
		return nil, nil
	}
	return t.offsets, t.values
}
