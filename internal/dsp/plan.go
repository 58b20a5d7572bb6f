package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Plan holds the precomputed state of a radix-2 FFT of one size: the
// bit-reversal permutation and the twiddle factors of every butterfly
// stage. Plans are immutable after construction and safe for concurrent
// use; PlanFor caches one per size so the per-call trigonometry of the
// transform is paid once per process instead of once per symbol.
type Plan struct {
	n   int
	rev []int32 // bit-reversal permutation
	// tw holds e^{-2πik/n} for k in [0, n/2): the forward twiddles of the
	// largest stage. A stage of size s uses every (n/s)-th entry, so one
	// table serves all log2(n) stages. itw is its conjugate (the inverse
	// twiddles), stored separately to keep the hot loops branch-free.
	tw  []complex128
	itw []complex128
}

// planEntry makes plan construction single-flight, mirroring
// core.CachedPlan: concurrent first requests for one size build it once.
type planEntry struct {
	once sync.Once
	plan *Plan
	err  error
}

var planCache sync.Map // int -> *planEntry

// PlanFor returns the process-wide shared plan for power-of-two size n,
// building it on first use. Construction errors are cached alongside the
// plan (they are deterministic for a given size).
func PlanFor(n int) (*Plan, error) {
	v, ok := planCache.Load(n)
	if !ok {
		v, _ = planCache.LoadOrStore(n, new(planEntry))
	}
	e := v.(*planEntry)
	e.once.Do(func() { e.plan, e.err = newPlan(n) })
	return e.plan, e.err
}

// PlanCacheLen reports how many FFT sizes the process-wide plan cache
// holds — an observability and test hook, not a capacity control (the
// sizes in use are few and bounded).
func PlanCacheLen() int {
	n := 0
	planCache.Range(func(any, any) bool { n++; return true })
	return n
}

func newPlan(n int) (*Plan, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT length %d is not a positive power of two", n)
	}
	p := &Plan{
		n:   n,
		rev: make([]int32, n),
		tw:  make([]complex128, n/2),
		itw: make([]complex128, n/2),
	}
	if n > 1 {
		shift := 64 - uint(bits.TrailingZeros(uint(n)))
		for i := range p.rev {
			p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
		}
	}
	for k := range p.tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.tw[k] = complex(c, s)
		p.itw[k] = complex(c, -s)
	}
	return p, nil
}

// Size returns the transform length the plan was built for.
func (p *Plan) Size() int { return p.n }

// Forward computes the DFT of x into dst. Both must have the plan's
// length; they must not alias (the bit-reversal pass reads x while
// writing dst). No allocation.
func (p *Plan) Forward(dst, x []complex128) error {
	if err := p.check(dst, x); err != nil {
		return err
	}
	p.permute(dst, x)
	p.butterflies(dst, p.tw, 0)
	return nil
}

// Inverse computes the inverse DFT of x into dst, including the 1/N
// normalization, which is folded into the final butterfly stage rather
// than paid as a separate pass. Same aliasing and length rules as Forward.
func (p *Plan) Inverse(dst, x []complex128) error {
	if err := p.check(dst, x); err != nil {
		return err
	}
	p.permute(dst, x)
	p.butterflies(dst, p.itw, 1/float64(p.n))
	return nil
}

func (p *Plan) check(dst, x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("dsp: FFT input length %d != plan size %d", len(x), p.n)
	}
	if len(dst) != p.n {
		return fmt.Errorf("dsp: FFT destination length %d != plan size %d", len(dst), p.n)
	}
	return nil
}

func (p *Plan) permute(dst, x []complex128) {
	if p.n == 1 {
		dst[0] = x[0]
		return
	}
	for i, r := range p.rev {
		dst[r] = x[i]
	}
}

// butterflies runs the in-place decimation-in-time stages over
// bit-reversed data with the given twiddle table. A non-zero norm is
// applied inside the final stage's butterfly (the inverse transform's 1/N),
// so no separate scaling pass over the output is needed.
func (p *Plan) butterflies(out []complex128, tw []complex128, norm float64) {
	n := p.n
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		stride := n / size // twiddle table step for this stage
		if size == n && norm != 0 {
			break // final stage runs fused with the normalization below
		}
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
	if norm != 0 && n > 1 {
		half := n / 2
		scale := complex(norm, 0)
		for k := 0; k < half; k++ {
			w := tw[k]
			a := out[k]
			b := out[k+half] * w
			out[k] = (a + b) * scale
			out[k+half] = (a - b) * scale
		}
	}
}
