package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n^2) reference transform the plan is checked against.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			phase := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, phase))
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		out[k] = sum
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// mustPlan returns the shared plan for size n, failing the test on error.
func mustPlan(t *testing.T, n int) *Plan {
	t.Helper()
	p, err := PlanFor(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 256} {
		x := randComplex(rng, n)
		p := mustPlan(t, n)
		fwd := make([]complex128, n)
		if err := p.Forward(fwd, x); err != nil {
			t.Fatal(err)
		}
		want := naiveDFT(x, false)
		for i := range want {
			if cmplx.Abs(fwd[i]-want[i]) > 1e-8*float64(n) {
				t.Fatalf("n=%d forward bin %d = %v, want %v", n, i, fwd[i], want[i])
			}
		}
		inv := make([]complex128, n)
		if err := p.Inverse(inv, x); err != nil {
			t.Fatal(err)
		}
		wantInv := naiveDFT(x, true)
		for i := range wantInv {
			if cmplx.Abs(inv[i]-wantInv[i]) > 1e-8 {
				t.Fatalf("n=%d inverse bin %d = %v, want %v", n, i, inv[i], wantInv[i])
			}
		}
	}
}

// TestFFTIFFTRoundTripAllSizes is the regression for folding the 1/N
// normalization into the inverse plan's final butterfly stage: FFT(IFFT(x))
// must reproduce x for every size the PHYs use (16, 64, 128).
func TestFFTIFFTRoundTripAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 64, 128} {
		x := randComplex(rng, n)
		back := MustFFT(MustIFFT(x))
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: FFT(IFFT(x))[%d] = %v, want %v", n, i, back[i], x[i])
			}
		}
		// And the other composition order.
		back = MustIFFT(MustFFT(x))
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: IFFT(FFT(x))[%d] = %v, want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12, 100} {
		if _, err := PlanFor(n); err == nil {
			t.Fatalf("PlanFor(%d) accepted", n)
		}
	}
	p := mustPlan(t, 64)
	if err := p.Forward(make([]complex128, 32), make([]complex128, 64)); err == nil {
		t.Fatal("short destination accepted")
	}
	if err := p.Forward(make([]complex128, 64), make([]complex128, 32)); err == nil {
		t.Fatal("short input accepted")
	}
}

func TestPlanCacheSharesInstances(t *testing.T) {
	a := mustPlan(t, 512)
	b := mustPlan(t, 512)
	if a != b {
		t.Fatal("PlanFor(512) returned distinct instances")
	}
	if PlanCacheLen() == 0 {
		t.Fatal("plan cache empty after use")
	}
}

func TestPlanTransformsDoNotAllocate(t *testing.T) {
	p := mustPlan(t, 64)
	x := randComplex(rand.New(rand.NewSource(9)), 64)
	dst := make([]complex128, 64)
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Forward(dst, x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Forward allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Inverse(dst, x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Inverse allocates %v times per run", n)
	}
}
