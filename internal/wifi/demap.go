package wifi

import (
	"fmt"
	"math"
	"sync"

	"sledzig/internal/bits"
)

// Allocation-free hard demapping. Both conventions quantize each axis to
// the nearest odd level independently and emit a deterministic bit pattern
// per level, so the whole demap reduces to two table lookups per point.
// The per-axis level->bits tables are built once per (convention,
// modulation) from the same primitives the allocating demappers use, which
// keeps the two paths identical by construction.

// hardDemapTable caches, per (convention, modulation), the per-axis bit
// patterns of every quantization level plus the convention's placement of
// axis bits within the subcarrier group.
type hardDemapTable struct {
	n     int     // bits per axis
	norm  float64 // constellation normalization factor
	paper bool    // interleaved I/Q placement (ConventionPaper)
	// axis[l] holds the n axis bits of level index l (level = 2l - (2^n-1)).
	axis [][]bits.Bit
}

var hardDemapCache sync.Map // map[struct{Convention; Modulation}]*hardDemapTable

func hardDemap(c Convention, m Modulation) (*hardDemapTable, error) {
	type key struct {
		c Convention
		m Modulation
	}
	if v, ok := hardDemapCache.Load(key{c, m}); ok {
		return v.(*hardDemapTable), nil
	}
	if !m.Valid() {
		return nil, fmt.Errorf("wifi: invalid modulation %d", int(m))
	}
	n := axisBits(m)
	t := &hardDemapTable{
		n:     n,
		norm:  NormFactor(m),
		paper: c == ConventionPaper && m != BPSK,
		axis:  make([][]bits.Bit, 1<<n),
	}
	for idx := range t.axis {
		level := 2*idx - ((1 << n) - 1)
		if t.paper {
			// Sign bit then LTE amplitude bits.
			ab := make([]bits.Bit, 0, n)
			l := level
			if l < 0 {
				ab = append(ab, 1)
				l = -l
			} else {
				ab = append(ab, 0)
			}
			t.axis[idx] = append(ab, lteAmplitudeBits(l, n-1)...)
		} else {
			t.axis[idx] = axisBitsFor(level, n)
		}
	}
	hardDemapCache.Store(key{c, m}, t)
	return t, nil
}

// levelIndex quantizes one axis value to its level index in [0, 2^n).
func (t *hardDemapTable) levelIndex(v float64) int {
	maxLevel := (1 << t.n) - 1
	l := int(math.Round((v/t.norm-1)/2))*2 + 1
	if l > maxLevel {
		l = maxLevel
	}
	if l < -maxLevel {
		l = -maxLevel
	}
	return (l + maxLevel) / 2
}

// DemapSymbolCInto hard-demaps one received point into dst, which must
// hold m.BitsPerSubcarrier() bits. It produces exactly the bits of
// DemapSymbolC without allocating.
func (c Convention) DemapSymbolCInto(dst []bits.Bit, m Modulation, p complex128) error {
	if m == BPSK {
		if len(dst) != 1 {
			return fmt.Errorf("wifi: %v expects 1 bit per point, got %d", m, len(dst))
		}
		if real(p) >= 0 {
			dst[0] = 1
		} else {
			dst[0] = 0
		}
		return nil
	}
	t, err := hardDemap(c, m)
	if err != nil {
		return err
	}
	if len(dst) != 2*t.n {
		return fmt.Errorf("wifi: %v expects %d bits per point, got %d", m, 2*t.n, len(dst))
	}
	iAxis := t.axis[t.levelIndex(real(p))]
	qAxis := t.axis[t.levelIndex(imag(p))]
	if t.paper {
		for k := 0; k < t.n; k++ {
			dst[2*k] = iAxis[k]
			dst[2*k+1] = qAxis[k]
		}
		return nil
	}
	copy(dst[:t.n], iAxis)
	copy(dst[t.n:], qAxis)
	return nil
}

// DemapAllCInto hard-demaps a point sequence into dst as a flat bit
// stream; dst must hold len(pts)*m.BitsPerSubcarrier() bits. No allocation.
func (c Convention) DemapAllCInto(dst []bits.Bit, m Modulation, pts []complex128) error {
	bpsc := m.BitsPerSubcarrier()
	if bpsc == 0 {
		return fmt.Errorf("wifi: invalid modulation %d", int(m))
	}
	if len(dst) != len(pts)*bpsc {
		return fmt.Errorf("wifi: demap destination length %d != %d points x %d bits", len(dst), len(pts), bpsc)
	}
	for i, p := range pts {
		if err := c.DemapSymbolCInto(dst[i*bpsc:(i+1)*bpsc], m, p); err != nil {
			return err
		}
	}
	return nil
}
