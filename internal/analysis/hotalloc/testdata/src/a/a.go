// Fixture for the hotalloc analyzer: //sledzig:noalloc contracts.
package a

import "sync"

type result struct{ data []float64 }

type scratch struct{ buf []float64 }

var pool = sync.Pool{New: func() any { return &scratch{} }}

var sharedBuf [64]float64

type errorString string

func (e errorString) Error() string { return string(e) }

func errOf(s string) error { return errorString(s) }

func box(v any) {}

// Un-annotated functions allocate freely.
func unannotated(n int) []float64 {
	return make([]float64, n)
}

// The canonical pooled hot path: Get/defer Put plus amortized grow.
//
//sledzig:noalloc
func pooled(n int) float64 {
	s := pool.Get().(*scratch)
	defer pool.Put(s)
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	s.buf = s.buf[:n]
	return s.buf[0]
}

// Capacity guards make the grow amortized: allowed.
//
//sledzig:noalloc
func guarded(s *scratch, n int) []float64 {
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	return s.buf[:n]
}

// Nil guards are the lazy-init flavor of the same idiom.
//
//sledzig:noalloc
func nilGuard(r *result, n int) {
	if r.data == nil {
		r.data = make([]float64, n)
	}
}

// Allocation on the error path is cold and allowed.
//
//sledzig:noalloc
func coldAlloc(n int) ([]float64, error) {
	if n < 0 || n > 64 {
		b := []byte("bad length")
		return nil, errOf(string(b))
	}
	return sharedBuf[:n], nil
}

// Unguarded make on the success path breaks the contract.
//
//sledzig:noalloc
func hotMake(n int) []float64 {
	return make([]float64, n) // want `make on a path to a successful return`
}

//sledzig:noalloc
func hotNew() *result {
	return new(result) // want `new on a path to a successful return`
}

//sledzig:noalloc
func hotAppend(dst []float64, v float64) []float64 {
	return append(dst, v) // want `append \(may grow the backing array\) on a path`
}

//sledzig:noalloc
func hotComposite() *result {
	return &result{} // want `heap-allocated composite &result\{\} on a path`
}

//sledzig:noalloc
func sliceLit() float64 {
	xs := []float64{1, 2, 3} // want `slice literal on a path`
	return xs[0]
}

//sledzig:noalloc
func convert(b []byte) string {
	return string(b) // want `converting between string and byte/rune slice`
}

// Capturing closures materialize per call; capture-free ones are static.
//
//sledzig:noalloc
func closures(n int) int {
	f := func() int { return n } // want `function literal capturing n`
	g := func() int { return 42 }
	return f() + g()
}

// Boxing a concrete value into an interface argument allocates; passing a
// pointer does not.
//
//sledzig:noalloc
func boxes(x int, p *result) {
	box(x) // want `boxing int into interface argument`
	box(p)
}

// budget=N mode: one-time allocations are the contract; per-iteration
// allocations inside loops are not.
//
//sledzig:noalloc budget=2
func budgeted(n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		tmp := make([]float64, 4) // want `make inside a loop .* allocates per iteration`
		out[i] = tmp[0]
	}
	return out
}

//sledzig:noalloc budget=soon
func malformed() {} // want `malformed //sledzig:noalloc directive`

// Contract exceptions carry a written reason.
//
//sledzig:noalloc
func justifiedAlloc(n int) []float64 {
	//sledvet:ignore hotalloc one-time warmup buffer, measured outside steady state
	return make([]float64, n)
}

// Strict functions are checked through every un-annotated function of
// their own package they call: a helper that allocates only behind a
// capacity guard, or on its error path, is fine to call; one that
// allocates on its success path is not, unless it carries a contract of
// its own.
func growTo(s []float64, n int) []float64 {
	if cap(s) < n {
		s = make([]float64, n)
	}
	return s[:n]
}

func (s *scratch) fresh(n int) []float64 { return make([]float64, n) }

func checkLen(n int) error {
	if n < 0 {
		return errOf(string([]byte("negative length")))
	}
	return nil
}

//sledzig:noalloc budget=1
func budgetedHelper(n int) []float64 { return make([]float64, n) }

//sledzig:noalloc
func callsHelpers(s *scratch, n int) ([]float64, error) {
	s.buf = growTo(s.buf, n)
	if err := checkLen(n); err != nil {
		return nil, err
	}
	_ = budgetedHelper(n)
	_ = unannotated(n)     // want `call to allocating function unannotated`
	return s.fresh(n), nil // want `call to allocating function fresh`
}

// The probe follows calls to any depth: a clean helper that reaches an
// allocation two calls down allocates, while one whose deeper call sits
// behind a capacity guard does not.
func outer(s *scratch, n int) []float64 { return middle(s, n) }

func middle(s *scratch, n int) []float64 {
	if cap(s.buf) < n {
		s.buf = growTo(s.buf, n)
	}
	return s.fresh(n)
}

func guardedOuter(s *scratch, n int) []float64 {
	if cap(s.buf) < n {
		return middle(s, n)
	}
	return s.buf[:n]
}

//sledzig:noalloc
func callsDeep(s *scratch, n int) float64 {
	a := outer(s, n) // want `call to allocating function outer \(allocates in fresh\)`
	b := guardedOuter(s, n)
	return a[0] + b[0]
}

// Recursion ends the walk: mutually recursive helpers terminate, clean
// when neither allocates and flagged when one does.
func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

func ping(s *scratch, n int) int {
	if n == 0 {
		return len(s.buf)
	}
	return pong(s, n-1)
}

func pong(s *scratch, n int) int {
	s.buf = append(s.buf, 0)
	return ping(s, n)
}

//sledzig:noalloc
func callsRecursive(s *scratch, n int) int {
	k := 0
	if even(n) {
		k++
	}
	return k + ping(s, n) // want `call to allocating function ping \(allocates in pong\)`
}
