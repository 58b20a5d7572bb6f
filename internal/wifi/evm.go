package wifi

import "math"

// NearestIdealPoint returns the constellation point of m nearest to p, or
// 0 for an invalid modulation. Both conventions share one lattice (they
// differ only in labels), so this is each axis quantized to its nearest
// level.
func NearestIdealPoint(m Modulation, p complex128) complex128 {
	if t := ConventionIEEE.table(m); t != nil {
		return t.ideal(p)
	}
	return 0
}

// ideal returns the point of t nearest p.
func (t *constellation) ideal(p complex128) complex128 {
	i, q := &t.axes[0], &t.axes[1]
	return complex(i.level[i.quantize(real(p))], q.level[q.quantize(imag(p))])
}

// SymbolEVM computes the per-symbol RMS error-vector magnitude of equalized
// constellation points against the nearest ideal points. The constellations
// are normalized to unit average power, so the figure is directly the
// relative EVM. The result slice is the only allocation.
func SymbolEVM(m Modulation, dataPoints [][]complex128) []float64 {
	out := make([]float64, len(dataPoints))
	t := ConventionIEEE.table(m)
	if t == nil {
		return out
	}
	for s, pts := range dataPoints {
		var sum float64
		for _, p := range pts {
			d := p - t.ideal(p)
			sum += real(d)*real(d) + imag(d)*imag(d)
		}
		if len(pts) > 0 {
			out[s] = math.Sqrt(sum / float64(len(pts)))
		}
	}
	return out
}
