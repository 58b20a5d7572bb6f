package wifi

import (
	"fmt"
	"math"

	"sledzig/internal/bits"
)

// 802.11 QAM constellations are square Gray mappings: each axis of a
// 2^(2m)-QAM carries m bits, with the bit pattern for ascending amplitude
// level i (levels -(2^m-1), ..., -1, 1, ..., 2^m-1) equal to the binary-
// reflected Gray code of i read MSB first. BPSK maps its single bit to the
// I axis only.

// grayCode returns the binary-reflected Gray code of i.
func grayCode(i int) int { return i ^ (i >> 1) }

// axisBits returns the number of bits per axis for the modulation (0 for
// BPSK's Q axis handled separately).
func axisBits(m Modulation) int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 1
	case QAM16:
		return 2
	case QAM64:
		return 3
	case QAM256:
		return 4
	default:
		return 0
	}
}

// NormFactor returns K_mod, the amplitude normalization making the average
// constellation power 1 (1, 1/sqrt2, 1/sqrt10, 1/sqrt42, 1/sqrt170).
func NormFactor(m Modulation) float64 {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 1 / math.Sqrt2
	case QAM16:
		return 1 / math.Sqrt(10)
	case QAM64:
		return 1 / math.Sqrt(42)
	case QAM256:
		return 1 / math.Sqrt(170)
	default:
		return 0
	}
}

// axisLevel maps n Gray-coded bits (MSB first) to the unnormalized
// amplitude level.
func axisLevel(b []bits.Bit) int {
	g := int(bits.ToUint(b))
	// Invert Gray code to recover the level index.
	i := g
	for shift := 1; shift < len(b); shift <<= 1 {
		i ^= i >> shift
	}
	return 2*i - ((1 << len(b)) - 1)
}

// axisBitsFor returns the Gray-coded bits (MSB first) for an unnormalized
// level on an axis with n bits.
func axisBitsFor(level, n int) []bits.Bit {
	i := (level + (1 << n) - 1) / 2
	return bits.FromUint(uint64(grayCode(i)), n)
}

// MapSymbol maps one subcarrier's worth of bits (N_BPSC of them) to a
// normalized constellation point.
func MapSymbol(m Modulation, b []bits.Bit) (complex128, error) {
	if len(b) != m.BitsPerSubcarrier() {
		return 0, fmt.Errorf("wifi: %v expects %d bits per point, got %d", m, m.BitsPerSubcarrier(), len(b))
	}
	k := NormFactor(m)
	if m == BPSK {
		return complex(float64(axisLevel(b))*k, 0), nil
	}
	n := axisBits(m)
	i := axisLevel(b[:n])
	q := axisLevel(b[n:])
	return complex(float64(i)*k, float64(q)*k), nil
}

// DemapSymbol performs a hard decision on a received point, returning the
// nearest constellation point's bits.
func DemapSymbol(m Modulation, p complex128) ([]bits.Bit, error) {
	if !m.Valid() {
		return nil, fmt.Errorf("wifi: invalid modulation %d", int(m))
	}
	k := NormFactor(m)
	if m == BPSK {
		if real(p) >= 0 {
			return []bits.Bit{1}, nil
		}
		return []bits.Bit{0}, nil
	}
	n := axisBits(m)
	maxLevel := (1 << n) - 1
	quant := func(v float64) int {
		// Round to the nearest odd level in [-maxLevel, maxLevel].
		l := int(math.Round((v/k-1)/2))*2 + 1
		if l > maxLevel {
			l = maxLevel
		}
		if l < -maxLevel {
			l = -maxLevel
		}
		return l
	}
	out := make([]bits.Bit, 0, 2*n)
	out = append(out, axisBitsFor(quant(real(p)), n)...)
	out = append(out, axisBitsFor(quant(imag(p)), n)...)
	return out, nil
}

// MapAll maps a whole interleaved bit stream (length a multiple of N_BPSC)
// to constellation points.
func MapAll(m Modulation, in []bits.Bit) ([]complex128, error) {
	bpsc := m.BitsPerSubcarrier()
	if len(in)%bpsc != 0 {
		return nil, fmt.Errorf("wifi: bit stream length %d not a multiple of N_BPSC %d", len(in), bpsc)
	}
	out := make([]complex128, 0, len(in)/bpsc)
	for off := 0; off < len(in); off += bpsc {
		p, err := MapSymbol(m, in[off:off+bpsc])
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// DemapAll hard-demaps a sequence of received points.
func DemapAll(m Modulation, pts []complex128) ([]bits.Bit, error) {
	out := make([]bits.Bit, 0, len(pts)*m.BitsPerSubcarrier())
	for _, p := range pts {
		b, err := DemapSymbol(m, p)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

// AveragePower returns the mean unnormalized constellation power
// (10 for QAM-16, 42 for QAM-64, 170 for QAM-256).
func AveragePower(m Modulation) float64 {
	n := axisBits(m)
	var axis float64
	for i := 0; i < 1<<n; i++ {
		l := float64(2*i - ((1 << n) - 1))
		axis += l * l
	}
	axis /= float64(int(1) << n)
	if m == BPSK {
		return axis
	}
	return 2 * axis
}

// LowestPower returns the unnormalized power of the four lowest points
// (+/-1 +/-1j), i.e. 2, for QAM modulations.
func LowestPower(m Modulation) float64 {
	if m == BPSK {
		return 1
	}
	return 2
}

// PowerReductionDB returns the theoretical per-subcarrier power decrease
// P_avg / P_low in dB obtained by pinning points to the lowest ring:
// 7.0 dB (QAM-16), 13.2 dB (QAM-64), 19.3 dB (QAM-256).
func PowerReductionDB(m Modulation) float64 {
	return 10 * math.Log10(AveragePower(m)/LowestPower(m))
}

// significantTable holds SignificantOffsetsC per convention and
// modulation. Its slices are views of each entry's own arrays, so the
// table stays off the heap, each clipped to its length so a caller's
// append copies instead of writing into the table.
var significantTable [ConventionPaper + 1][QAM256 + 1]struct {
	offsets []int
	values  []bits.Bit
	offBuf  [8]int
	valBuf  [8]bits.Bit
}

func init() {
	build := [...]func(Modulation) ([]int, []bits.Bit){ConventionIEEE: ieeeSignificant, ConventionPaper: lteSignificant}
	for m := BPSK; m <= QAM256; m++ {
		for c := range build {
			offsets, values := build[c](m)
			t, n := &significantTable[c][m], len(offsets)
			t.offsets, t.values = t.offBuf[:n:n], t.valBuf[:n:n]
			copy(t.offsets, offsets)
			copy(t.values, values)
		}
	}
}

// ieeeSignificant returns, for one constellation point of m under the
// IEEE Gray labeling, the bit offsets within the N_BPSC-bit group that
// must be pinned to force the point onto the lowest-power ring (|I| = |Q|
// = 1), together with the required values. The first bit of each axis
// (the sign bit) stays free, which is what lets SledZig keep carrying
// payload on pinned subcarriers.
//
// Levels -1 and +1 share the axis suffix "1 0 ... 0"; so for QAM-16 one
// bit per axis is pinned to 1, for QAM-64 two bits per axis are pinned to
// (1, 0), for QAM-256 three bits per axis to (1, 0, 0) — matching the
// paper's Table I counts of 2/4/6.
func ieeeSignificant(m Modulation) (offsets []int, values []bits.Bit) {
	n := axisBits(m)
	if m == BPSK || n < 2 {
		return nil, nil // every point already has |I| = 1
	}
	// Verify the suffix claim against the Gray mapping rather than assuming
	// it: compute the common suffix of levels -1 and +1.
	low := axisBitsFor(-1, n)
	high := axisBitsFor(1, n)
	for off := 1; off < n; off++ {
		if low[off] != high[off] {
			panic("wifi: Gray mapping violated inner-ring suffix invariant")
		}
	}
	for axis := 0; axis < 2; axis++ {
		for off := 1; off < n; off++ {
			offsets = append(offsets, axis*n+off)
			values = append(values, low[off])
		}
	}
	return offsets, values
}
