package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Narrow-sample (complex64) variants of the DSP primitives. The receive
// hot path works at 16-bit-effective precision anyway (constellation
// decisions tolerate far more error than float32 introduces), so carrying
// I/Q as complex64 halves the memory traffic of every FFT, equalization,
// and demap pass. Twiddle factors are computed in float64 and rounded
// once, so a narrow transform differs from the wide one only by rounding
// of the data path itself (~1e-7 relative per butterfly stage).

// Plan32 is the complex64 counterpart of Plan: the precomputed state of a
// radix-2 FFT of one size. Plans are immutable after construction and safe
// for concurrent use.
type Plan32 struct {
	n   int
	rev []int32
	tw  []complex64
}

type planEntry32 struct {
	once sync.Once
	plan *Plan32
	err  error
}

var planCache32 sync.Map // int -> *planEntry32

// PlanFor32 returns the process-wide shared complex64 plan for
// power-of-two size n, building it on first use.
func PlanFor32(n int) (*Plan32, error) {
	v, ok := planCache32.Load(n)
	if !ok {
		v, _ = planCache32.LoadOrStore(n, new(planEntry32))
	}
	e := v.(*planEntry32)
	e.once.Do(func() { e.plan, e.err = newPlan32(n) })
	return e.plan, e.err
}

func newPlan32(n int) (*Plan32, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT length %d is not a positive power of two", n)
	}
	p := &Plan32{
		n:   n,
		rev: make([]int32, n),
		tw:  make([]complex64, n/2),
	}
	if n > 1 {
		shift := 64 - uint(bits.TrailingZeros(uint(n)))
		for i := range p.rev {
			p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
		}
	}
	for k := range p.tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.tw[k] = complex(float32(c), float32(s))
	}
	return p, nil
}

// Forward computes the DFT of x into dst. Both must have the plan's
// length; they must not alias. No allocation.
func (p *Plan32) Forward(dst, x []complex64) error {
	if err := p.check(dst, x); err != nil {
		return err
	}
	p.permute(dst, x)
	p.butterflies(dst)
	return nil
}

func (p *Plan32) check(dst, x []complex64) error {
	if len(x) != p.n {
		return fmt.Errorf("dsp: FFT input length %d != plan size %d", len(x), p.n)
	}
	if len(dst) != p.n {
		return fmt.Errorf("dsp: FFT destination length %d != plan size %d", len(dst), p.n)
	}
	return nil
}

func (p *Plan32) permute(dst, x []complex64) {
	if p.n == 1 {
		dst[0] = x[0]
		return
	}
	for i, r := range p.rev {
		dst[r] = x[i]
	}
}

func (p *Plan32) butterflies(out []complex64) {
	n, tw := p.n, p.tw
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		stride := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := tw[k*stride]
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
			}
		}
	}
}

// FFTInto32 computes the DFT of x into dst (same power-of-two length, no
// aliasing). No allocation.
func FFTInto32(dst, x []complex64) error {
	p, err := PlanFor32(len(x))
	if err != nil {
		return err
	}
	return p.Forward(dst, x)
}

// Narrow converts wide samples to complex64 into dst, reusing its capacity,
// and returns the resized slice. This is the single rounding step of the
// narrow receive path: everything downstream stays complex64.
func Narrow(dst []complex64, src []complex128) []complex64 {
	if cap(dst) < len(src) {
		dst = make([]complex64, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = complex(float32(real(v)), float32(imag(v)))
	}
	return dst
}

// Periodogram32 is Periodogram over narrow samples: the FFTs run in
// complex64, the PSD accumulates in float64.
func Periodogram32(x []complex64, n int) ([]float64, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: periodogram size %d is not a power of two", n)
	}
	if len(x) < n {
		return nil, fmt.Errorf("dsp: signal length %d shorter than FFT size %d", len(x), n)
	}
	plan, err := PlanFor32(n)
	if err != nil {
		return nil, err
	}
	psd := make([]float64, n)
	spec := make([]complex64, n)
	segments := 0
	for start := 0; start+n <= len(x); start += n {
		if err := plan.Forward(spec, x[start:start+n]); err != nil {
			return nil, err
		}
		for i, v := range spec {
			re, im := float64(real(v)), float64(imag(v))
			psd[i] += re*re + im*im
		}
		segments++
	}
	scale := 1 / (float64(segments) * float64(n) * float64(n))
	for i := range psd {
		psd[i] *= scale
	}
	return psd, nil
}

// BandPower32 measures the mean power of narrow samples inside [lo, hi]
// Hz, mirroring BandPower's bin mapping so the two sample widths are
// directly comparable.
func BandPower32(x []complex64, sampleRate, lo, hi float64) (float64, error) {
	if hi <= lo {
		return 0, fmt.Errorf("dsp: invalid band [%g, %g]", lo, hi)
	}
	n := 1024
	for len(x) < n && n > 8 {
		n /= 2
	}
	psd, err := Periodogram32(x, n)
	if err != nil {
		return 0, err
	}
	binWidth := sampleRate / float64(n)
	var sum float64
	for i := 0; i < n; i++ {
		f := float64(i) * binWidth
		if i >= n/2 {
			f -= sampleRate
		}
		if f >= lo && f < hi {
			sum += psd[i]
		}
	}
	return sum, nil
}
