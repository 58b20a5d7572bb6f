package wifi

import (
	"fmt"

	"sledzig/internal/bits"
)

// Demapping reads the constellation table one axis at a time. A hard
// decision quantizes each coordinate to its nearest level and copies that
// level's label bits into place. A max-log LLR searches the levels of the
// one axis its bit depends on. None of it allocates.

// demapTable returns the constellation for demapping npts points of m
// into dst values, or the error naming the mismatch.
func (c Convention) demapTable(m Modulation, npts, dst int, what string) (*constellation, error) {
	t := c.table(m)
	if t == nil {
		return nil, fmt.Errorf("wifi: invalid modulation %d", int(m))
	}
	if bpsc := m.BitsPerSubcarrier(); dst != npts*bpsc {
		return nil, fmt.Errorf("wifi: %s destination length %d != %d points x %d bits", what, dst, npts, bpsc)
	}
	return t, nil
}

// hard writes the labels of the levels nearest re and im into dst, the
// group of one point.
func (t *constellation) hard(dst []bits.Bit, re, im float64) {
	lab := [2]uint8{t.axes[0].label[t.axes[0].quantize(re)], t.axes[1].label[t.axes[1].quantize(im)]}
	for b, p := range t.place[:len(dst)] {
		dst[b] = lab[p.axis] >> p.shift & 1
	}
}

// DemapAllCInto hard-demaps a point sequence into dst as a flat bit
// stream; dst must hold len(pts)*m.BitsPerSubcarrier() bits.
//
//sledzig:noalloc
func (c Convention) DemapAllCInto(dst []bits.Bit, m Modulation, pts []complex128) error {
	t, err := c.demapTable(m, len(pts), len(dst), "demap")
	if err != nil {
		return err
	}
	n := m.BitsPerSubcarrier()
	for i, p := range pts {
		t.hard(dst[i*n:(i+1)*n], real(p), imag(p))
	}
	return nil
}

// DemapAll64Into is DemapAllCInto on narrow points. Widening a float32 is
// exact, so it decides exactly as DemapAllCInto does on the widened
// points.
//
//sledzig:noalloc
func (c Convention) DemapAll64Into(dst []bits.Bit, m Modulation, pts []complex64) error {
	t, err := c.demapTable(m, len(pts), len(dst), "demap")
	if err != nil {
		return err
	}
	n := m.BitsPerSubcarrier()
	for i, p := range pts {
		t.hard(dst[i*n:(i+1)*n], float64(real(p)), float64(imag(p)))
	}
	return nil
}

// SoftDemapAll64Into writes max-log log-likelihood ratios for a narrow
// point sequence into dst, m.BitsPerSubcarrier() per point (positive: bit
// 0 more likely); dst must hold len(pts)*m.BitsPerSubcarrier() values.
// The noise variance only scales the LLRs, which the Viterbi minimization
// is invariant to, so it is fixed at 1.
//
// A bit's LLR is the least squared distance to a point with the bit set
// minus the least to one with it clear. Each bit depends on one axis, so
// each minimum is the least distance along that axis among levels with
// the bit's value, plus the other axis's least distance. The search runs
// in float32 and the two sums widen to float64. Float32 rounding is
// monotone, so this equals a search over every point in float32, at 2·2^n
// squared distances per point instead of 2^(2n).
//
//sledzig:noalloc
func (c Convention) SoftDemapAll64Into(dst []float64, m Modulation, pts []complex64) error {
	t, err := c.demapTable(m, len(pts), len(dst), "LLR")
	if err != nil {
		return err
	}
	n := m.BitsPerSubcarrier()
	for i, p := range pts {
		var lo [2][2][maxBitsPerSubcarrier / 2]float32
		all := [2]float32{t.axes[0].nearest(real(p), &lo[0]), t.axes[1].nearest(imag(p), &lo[1])}
		llr := dst[i*n : (i+1)*n]
		for b, pl := range t.place[:n] {
			a, other := &lo[pl.axis], all[1-pl.axis]
			llr[b] = float64(a[1][pl.shift]+other) - float64(a[0][pl.shift]+other)
		}
	}
	return nil
}
