package wifi

import (
	"fmt"
	"math"
	"sync"

	"sledzig/internal/bits"
)

// Soft-decision receive path: a max-log LLR demapper over the exact
// constellation of either convention, and a Viterbi decoder with additive
// float branch metrics. Soft decoding recovers the ~2 dB that hard
// decisions give away, bringing the measured minimum-SNR table onto the
// paper's (soft-decision) figures.

// constellationTable caches, per (convention, modulation), every
// constellation point alongside its bit label, both as bit slices and as
// packed words (bit b of packed[i] is labels[i][b]) so the demapper's hot
// loop stays free of slice-of-slice indirection.
type constellationTable struct {
	points []complex128
	labels [][]bits.Bit
	packed []uint16
}

var constellationCache sync.Map // map[struct{Convention; Modulation}]*constellationTable

func constellation(c Convention, m Modulation) (*constellationTable, error) {
	type key struct {
		c Convention
		m Modulation
	}
	if v, ok := constellationCache.Load(key{c, m}); ok {
		return v.(*constellationTable), nil
	}
	n := m.BitsPerSubcarrier()
	if n == 0 {
		return nil, fmt.Errorf("wifi: invalid modulation %d", int(m))
	}
	t := &constellationTable{
		points: make([]complex128, 0, 1<<n),
		labels: make([][]bits.Bit, 0, 1<<n),
		packed: make([]uint16, 0, 1<<n),
	}
	for v := 0; v < 1<<n; v++ {
		label := bits.FromUint(uint64(v), n)
		p, err := c.MapSymbolC(m, label)
		if err != nil {
			return nil, err
		}
		var pack uint16
		for b, bit := range label {
			pack |= uint16(bit&1) << uint(b)
		}
		t.points = append(t.points, p)
		t.labels = append(t.labels, label)
		t.packed = append(t.packed, pack)
	}
	constellationCache.Store(key{c, m}, t)
	return t, nil
}

// maxBitsPerSubcarrier bounds the demapper's fixed-size work arrays
// (QAM-256 labels 8 bits per subcarrier).
const maxBitsPerSubcarrier = 8

// SoftDemapSymbolInto writes per-bit log-likelihood ratios (positive =
// bit 0 more likely) for one received point into llr, which must hold
// m.BitsPerSubcarrier() values, under a max-log approximation. The noise
// variance only scales the LLRs, which the Viterbi minimization is
// invariant to, so it is fixed at 1. It allocates nothing.
func (c Convention) SoftDemapSymbolInto(llr []float64, m Modulation, p complex128) error {
	tbl, err := constellation(c, m)
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
// dst must hold len(pts)*m.BitsPerSubcarrier() values. No allocation.
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
