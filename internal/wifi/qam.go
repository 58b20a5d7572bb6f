package wifi

import (
	"math"

	"sledzig/internal/bits"
)

// 802.11 QAM constellations are square: each axis of a 2^(2n)-QAM point
// takes one of 2^n levels, the odd multiples -(2^n-1), ..., -1, 1, ...,
// 2^n-1 of NormFactor, and carries n of the point's bits. BPSK maps its
// single bit to the I axis only. The two conventions share these points
// and differ only in their labels:
//
//   - ConventionIEEE labels the level of ascending index i with the
//     binary-reflected Gray code of i, read MSB first, and sends the I
//     axis's bits before the Q axis's.
//   - ConventionPaper's LTE-style label is the complement of that Gray
//     code (a sign bit, 1 for negative, then the amplitude bits), and I
//     and Q bits alternate, sign bits first. BPSK is labeled as in IEEE.
//
// Every bit of a point thus depends on one axis only. Mapping, hard
// decisions and max-log LLRs all work one axis at a time from the one
// table below.

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

// maxBitsPerSubcarrier bounds N_BPSC (QAM-256 labels 8 bits per
// subcarrier), and maxAxisLevels the levels of one axis.
const (
	maxBitsPerSubcarrier = 8
	maxAxisLevels        = 1 << (maxBitsPerSubcarrier / 2)
)

// axis is one axis of a constellation: 1<<n levels, ascending by index.
type axis struct {
	n       int                    // label bits; BPSK's Q axis has none and the one level 0
	norm    float64                // NormFactor of the modulation
	sign    bool                   // BPSK's I axis: decide by sign alone
	level   [maxAxisLevels]float64 // normalized level of each index
	level32 [maxAxisLevels]float32 // level rounded for the narrow soft demapper
	label   [maxAxisLevels]uint8   // label of each index, first-sent bit most significant
	value   [maxAxisLevels]float64 // normalized level of each label, for the mapper
}

// quantize returns the index of the level nearest v. It is the package's
// one decision rule: hard demapping, NearestIdealPoint and SymbolEVM all
// read it. It rounds (v/norm-1)/2 half away from zero to pick an odd
// multiple of norm, and clamps that to the axis in float64, before the
// integer conversion, so a huge or infinite coordinate takes the outermost
// level of its sign. NaN takes level +1. BPSK keeps 802.11's sign rule
// instead, which sends 0 and -0 to +1 where rounding would send them to
// -1.
func (a *axis) quantize(v float64) int {
	if a.sign {
		if v >= 0 {
			return 1
		}
		return 0
	}
	top := 1<<a.n - 1
	if math.IsNaN(v) {
		return (top + 1) / 2
	}
	l := max(-float64(top), min(2*math.Round((v/a.norm-1)/2)+1, float64(top)))
	return (int(l) + top) / 2
}

// nearest returns the least squared distance from v to any level, and
// fills lo[b][s] with the least over the levels whose label bit s is b.
// It compares with <, so a NaN distance never wins and a NaN v leaves
// every minimum at +Inf.
func (a *axis) nearest(v float32, lo *[2][maxBitsPerSubcarrier / 2]float32) float32 {
	inf := float32(math.Inf(1))
	all := inf
	for s := 0; s < a.n; s++ {
		lo[0][s], lo[1][s] = inf, inf
	}
	for i, lv := range a.level32[:1<<a.n] {
		d := v - lv
		sq := d * d
		if sq < all {
			all = sq
		}
		for s, lab := 0, a.label[i]; s < a.n; s, lab = s+1, lab>>1 {
			if sq < lo[lab&1][s] {
				lo[lab&1][s] = sq
			}
		}
	}
	return all
}

// place locates one bit of a subcarrier's group: its axis (0 for I, 1 for
// Q) and the bit's shift within that axis's label.
type place struct{ axis, shift uint8 }

// constellation is one (convention, modulation) entry of constellations.
type constellation struct {
	axes  [2]axis                     // I, Q
	place [maxBitsPerSubcarrier]place // of each of the N_BPSC bits, in order

	// SignificantOffsetsC's result. The slices are views of the arrays
	// below, clipped to their length so a caller's append copies instead
	// of writing into the table.
	offsets []int
	values  []bits.Bit
	offBuf  [maxBitsPerSubcarrier]int
	valBuf  [maxBitsPerSubcarrier]bits.Bit
}

// constellations holds every modulation's constellation under both
// conventions, constellations[c][m]. It is built once at package init in
// fixed-size arrays, so it stays off the heap and needs no lock.
var constellations [ConventionPaper + 1][QAM256 + 1]constellation

func init() {
	for c := ConventionIEEE; c <= ConventionPaper; c++ {
		for m := BPSK; m <= QAM256; m++ {
			constellations[c][m].build(m, c == ConventionPaper && m != BPSK)
		}
	}
}

// build fills t with m's constellation, under the paper's LTE-style
// labels when lte is set and IEEE's otherwise.
func (t *constellation) build(m Modulation, lte bool) {
	n, bpsc := axisBits(m), m.BitsPerSubcarrier()
	for a := range t.axes {
		x := &t.axes[a]
		x.n, x.norm, x.sign = n, NormFactor(m), m == BPSK && a == 0
		if m == BPSK && a == 1 {
			x.n = 0
		}
		top := 1<<x.n - 1
		for i := 0; i <= top; i++ {
			lab := uint8(grayCode(i))
			if lte {
				lab ^= uint8(top)
			}
			x.level[i] = float64(2*i-top) * x.norm
			x.level32[i] = float32(x.level[i])
			x.label[i], x.value[lab] = lab, x.level[i]
		}
	}
	// IEEE sends the I axis's n bits, then Q's; the paper's labels
	// alternate I and Q bits, signs first. The significant bits pin a
	// point to the lowest-power ring, |I| = |Q| = 1, while its sign bits
	// stay free to carry payload: they are the label bits equal at levels
	// -1 and +1, in ascending offset order.
	k := 0
	for b := range bpsc {
		a, s := b/n, n-1-b%n
		if lte {
			a, s = b%2, n-1-b/2
		}
		t.place[b] = place{uint8(a), uint8(s)}
		x := &t.axes[a]
		mid := (1<<x.n - 1) / 2 // index of level -1; mid+1 is +1
		if neg, pos := x.label[mid], x.label[mid+1]; (neg^pos)>>s&1 == 0 {
			t.offBuf[k], t.valBuf[k] = b, neg>>s&1
			k++
		}
	}
	t.offsets, t.values = t.offBuf[:k:k], t.valBuf[:k:k]
}

// table returns the constellation of m under c's labeling, or nil for an
// invalid modulation. Every value but ConventionIEEE reads as the paper's.
func (c Convention) table(m Modulation) *constellation {
	if !m.Valid() {
		return nil
	}
	if c != ConventionIEEE {
		c = ConventionPaper
	}
	return &constellations[c][m]
}

// AveragePower returns the mean unnormalized constellation power
// (10 for QAM-16, 42 for QAM-64, 170 for QAM-256).
func AveragePower(m Modulation) float64 {
	n := axisBits(m)
	var pow float64
	for i := 0; i < 1<<n; i++ {
		l := float64(2*i - ((1 << n) - 1))
		pow += l * l
	}
	pow /= float64(int(1) << n)
	if m == BPSK {
		return pow
	}
	return 2 * pow
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
