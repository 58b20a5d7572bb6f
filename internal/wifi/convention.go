package wifi

import (
	"fmt"
	"math"

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

// lteAmplitude maps amplitude bits (after the sign bit) to the positive
// level via the LTE recursion P_k = 2^k - (1-2 a_1) P_{k-1}, P_0 = 1.
func lteAmplitude(amp []bits.Bit) int {
	if len(amp) == 0 {
		return 1
	}
	sign := 1 - 2*int(amp[0]&1)
	return 1<<len(amp) - sign*lteAmplitude(amp[1:])
}

// lteAmplitudeBits inverts lteAmplitude for a positive odd level.
func lteAmplitudeBits(level, n int) []bits.Bit {
	out := make([]bits.Bit, 0, n)
	for k := n; k >= 1; k-- {
		half := 1 << k
		if level > half {
			out = append(out, 1)
			level -= half
		} else {
			out = append(out, 0)
			level = half - level
		}
	}
	return out
}

// MapSymbolC maps one subcarrier's bit group to a normalized point under
// the convention.
func (c Convention) MapSymbolC(m Modulation, b []bits.Bit) (complex128, error) {
	if c == ConventionIEEE || m == BPSK {
		return MapSymbol(m, b)
	}
	if len(b) != m.BitsPerSubcarrier() {
		return 0, fmt.Errorf("wifi: %v expects %d bits per point, got %d", m, m.BitsPerSubcarrier(), len(b))
	}
	// LTE-style: even-offset bits belong to I, odd-offset bits to Q; bit 0
	// and 1 are the signs.
	n := axisBits(m)
	iBits := make([]bits.Bit, 0, n)
	qBits := make([]bits.Bit, 0, n)
	for off, bit := range b {
		if off%2 == 0 {
			iBits = append(iBits, bit&1)
		} else {
			qBits = append(qBits, bit&1)
		}
	}
	k := NormFactor(m)
	i := float64(1-2*int(iBits[0])) * float64(lteAmplitude(iBits[1:]))
	q := float64(1-2*int(qBits[0])) * float64(lteAmplitude(qBits[1:]))
	return complex(i*k, q*k), nil
}

// DemapSymbolC hard-demaps a received point under the convention.
func (c Convention) DemapSymbolC(m Modulation, p complex128) ([]bits.Bit, error) {
	if c == ConventionIEEE || m == BPSK {
		return DemapSymbol(m, p)
	}
	if !m.Valid() {
		return nil, fmt.Errorf("wifi: invalid modulation %d", int(m))
	}
	n := axisBits(m)
	kf := NormFactor(m)
	maxLevel := (1 << n) - 1
	quant := func(v float64) int {
		l := int(math.Round((v/kf-1)/2))*2 + 1
		if l > maxLevel {
			l = maxLevel
		}
		if l < -maxLevel {
			l = -maxLevel
		}
		return l
	}
	axis := func(v float64) []bits.Bit {
		l := quant(v)
		out := make([]bits.Bit, 0, n)
		if l < 0 {
			out = append(out, 1)
			l = -l
		} else {
			out = append(out, 0)
		}
		return append(out, lteAmplitudeBits(l, n-1)...)
	}
	iBits := axis(real(p))
	qBits := axis(imag(p))
	out := make([]bits.Bit, 2*n)
	for k := 0; k < n; k++ {
		out[2*k] = iBits[k]
		out[2*k+1] = qBits[k]
	}
	return out, nil
}

// MapAllC maps a whole interleaved bit stream under the convention.
func (c Convention) MapAllC(m Modulation, in []bits.Bit) ([]complex128, error) {
	bpsc := m.BitsPerSubcarrier()
	if len(in)%bpsc != 0 {
		return nil, fmt.Errorf("wifi: bit stream length %d not a multiple of N_BPSC %d", len(in), bpsc)
	}
	out := make([]complex128, len(in)/bpsc)
	if err := c.MapAllCInto(m, in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MapAllCInto is MapAllC writing into dst (len == len(in)/N_BPSC): the
// allocation-free variant for pooled transmit paths.
func (c Convention) MapAllCInto(m Modulation, in []bits.Bit, dst []complex128) error {
	bpsc := m.BitsPerSubcarrier()
	if len(in)%bpsc != 0 {
		return fmt.Errorf("wifi: bit stream length %d not a multiple of N_BPSC %d", len(in), bpsc)
	}
	if len(dst) != len(in)/bpsc {
		return fmt.Errorf("wifi: map destination length %d != %d points", len(dst), len(in)/bpsc)
	}
	for i := range dst {
		p, err := c.MapSymbolC(m, in[i*bpsc:(i+1)*bpsc])
		if err != nil {
			return err
		}
		dst[i] = p
	}
	return nil
}

// DemapAllC hard-demaps a point sequence under the convention.
func (c Convention) DemapAllC(m Modulation, pts []complex128) ([]bits.Bit, error) {
	out := make([]bits.Bit, 0, len(pts)*m.BitsPerSubcarrier())
	for _, p := range pts {
		b, err := c.DemapSymbolC(m, p)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

// SignificantOffsetsC returns the bit offsets within one constellation
// point's group that pin it to the lowest-power ring, with the required
// values, under the convention; nil for an invalid modulation. The slices
// are built once at package init and shared by every caller: they must
// not be modified.
//
//sledzig:noalloc
func (c Convention) SignificantOffsetsC(m Modulation) (offsets []int, values []bits.Bit) {
	if !m.Valid() {
		return nil, nil
	}
	if c != ConventionIEEE {
		c = ConventionPaper // every other labeling is LTE's
	}
	t := &significantTable[c][m]
	return t.offsets, t.values
}

// lteSignificant derives SignificantOffsetsC for the LTE labeling.
func lteSignificant(m Modulation) (offsets []int, values []bits.Bit) {
	n := axisBits(m)
	if m == BPSK || n < 2 {
		return nil, nil
	}
	// LTE labeling: amplitude bits live at offsets 2..2n-1 (ascending, as
	// the derived tables need); the required values for level 1 come from
	// lteAmplitudeBits.
	amp := lteAmplitudeBits(1, n-1)
	for k := 1; k < n; k++ {
		offsets = append(offsets, 2*k, 2*k+1)
		values = append(values, amp[k-1], amp[k-1])
	}
	return offsets, values
}
