package wifi

import (
	"fmt"
	"math"

	"sledzig/internal/bits"
)

// The per-point constellation arithmetic and point-search demappers the
// constellation table replaced, kept as the oracles the table's mapping,
// hard decisions, LLRs and significant bits are tested against. The
// complex128 soft demapper is also the wide oracle receiver's.

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
// normalized constellation point under the IEEE labeling.
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

// DemapSymbol performs a hard decision on a received point under the IEEE
// labeling, returning the nearest constellation point's bits.
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

// ieeeSignificant returns, for one constellation point of m under the
// IEEE Gray labeling, the bit offsets within the N_BPSC-bit group that
// must be pinned to force the point onto the lowest-power ring (|I| = |Q|
// = 1), together with the required values. The first bit of each axis
// (the sign bit) stays free.
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

// lteSignificant is ieeeSignificant for the LTE labeling.
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

// pointTable holds every constellation point alongside its bit label as
// a packed word (bit b of packed[i] is label bit b), at both widths.
type pointTable struct {
	points   []complex128
	points32 []complex64
	packed   []uint16
}

// pointTables holds the point table of every (labeling, modulation),
// indexed [c != ConventionIEEE][m], built from MapSymbolC.
var pointTables = func() (t [2][QAM256 + 1]pointTable) {
	for _, c := range []Convention{ConventionIEEE, ConventionPaper} {
		for m := BPSK; m <= QAM256; m++ {
			n := m.BitsPerSubcarrier()
			e := &t[c][m]
			for v := 0; v < 1<<n; v++ {
				label := bits.FromUint(uint64(v), n)
				p, err := c.MapSymbolC(m, label)
				if err != nil {
					panic(err)
				}
				var pack uint16
				for b, bit := range label {
					pack |= uint16(bit&1) << uint(b)
				}
				e.points = append(e.points, p)
				e.points32 = append(e.points32, complex(float32(real(p)), float32(imag(p))))
				e.packed = append(e.packed, pack)
			}
		}
	}
	return t
}()

func pointTableOf(c Convention, m Modulation) (*pointTable, error) {
	if !m.Valid() {
		return nil, fmt.Errorf("wifi: invalid modulation %d", int(m))
	}
	if c != ConventionIEEE {
		c = ConventionPaper
	}
	return &pointTables[c][m], nil
}

// SoftDemapSymbolInto writes per-bit max-log LLRs (positive = bit 0 more
// likely) for one received point into llr, which must hold
// m.BitsPerSubcarrier() values, searching every point in float64.
func (c Convention) SoftDemapSymbolInto(llr []float64, m Modulation, p complex128) error {
	tbl, err := pointTableOf(c, m)
	if err != nil {
		return err
	}
	n := m.BitsPerSubcarrier()
	if len(llr) != n {
		return fmt.Errorf("wifi: LLR destination length %d != %d bits for %v", len(llr), n, m)
	}
	var best0, best1 [maxBitsPerSubcarrier]float64
	inf := math.Inf(1)
	for b := 0; b < n; b++ {
		best0[b] = inf
		best1[b] = inf
	}
	pr, pi := real(p), imag(p)
	for i, pt := range tbl.points {
		dre := pr - real(pt)
		dim := pi - imag(pt)
		d := dre*dre + dim*dim
		lab := tbl.packed[i]
		for b := 0; b < n; b++ {
			if lab>>uint(b)&1 == 0 {
				if d < best0[b] {
					best0[b] = d
				}
			} else if d < best1[b] {
				best1[b] = d
			}
		}
	}
	for b := 0; b < n; b++ {
		llr[b] = best1[b] - best0[b]
	}
	return nil
}

// SoftDemapAllInto demaps a point sequence into dst as a flat LLR stream;
// dst must hold len(pts)*m.BitsPerSubcarrier() values.
func (c Convention) SoftDemapAllInto(dst []float64, m Modulation, pts []complex128) error {
	n := m.BitsPerSubcarrier()
	if len(dst) != len(pts)*n {
		return fmt.Errorf("wifi: LLR destination length %d != %d points x %d bits", len(dst), len(pts), n)
	}
	for i, p := range pts {
		if err := c.SoftDemapSymbolInto(dst[i*n:(i+1)*n], m, p); err != nil {
			return err
		}
	}
	return nil
}

// softDemapSearch64Into is SoftDemapAll64Into as a search over every
// point in float32. The float32 conversions round each square before the
// sum, as separate instructions do, so no platform fuses them into a
// multiply-add the axis search does not make.
func (c Convention) softDemapSearch64Into(dst []float64, m Modulation, pts []complex64) error {
	n := m.BitsPerSubcarrier()
	if n == 0 {
		return fmt.Errorf("wifi: invalid modulation %d", int(m))
	}
	if len(dst) != len(pts)*n {
		return fmt.Errorf("wifi: LLR destination length %d != %d points x %d bits", len(dst), len(pts), n)
	}
	tbl, err := pointTableOf(c, m)
	if err != nil {
		return err
	}
	inf := float32(math.Inf(1))
	for i, p := range pts {
		var best0, best1 [maxBitsPerSubcarrier]float32
		for b := 0; b < n; b++ {
			best0[b] = inf
			best1[b] = inf
		}
		pr, pi := real(p), imag(p)
		for j, pt := range tbl.points32 {
			dre := pr - real(pt)
			dim := pi - imag(pt)
			d := float32(dre*dre) + float32(dim*dim)
			lab := tbl.packed[j]
			for b := 0; b < n; b++ {
				if lab>>uint(b)&1 == 0 {
					if d < best0[b] {
						best0[b] = d
					}
				} else if d < best1[b] {
					best1[b] = d
				}
			}
		}
		llr := dst[i*n : (i+1)*n]
		for b := 0; b < n; b++ {
			llr[b] = float64(best1[b]) - float64(best0[b])
		}
	}
	return nil
}
