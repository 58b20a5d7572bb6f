package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTKnownValues(t *testing.T) {
	// FFT of a unit impulse is flat ones.
	x := make([]complex128, 8)
	x[0] = 1
	spec := MustFFT(x)
	for i, v := range spec {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
	// FFT of a single complex tone concentrates in one bin.
	n := 64
	tone := make([]complex128, n)
	for i := range tone {
		phase := 2 * math.Pi * 5 * float64(i) / float64(n)
		tone[i] = cmplx.Exp(complex(0, phase))
	}
	spec = MustFFT(tone)
	for i, v := range spec {
		want := 0.0
		if i == 5 {
			want = float64(n)
		}
		if cmplx.Abs(v-complex(want, 0)) > 1e-9 {
			t.Fatalf("tone bin %d = %v", i, v)
		}
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		x := make([]complex128, 128)
		for i := range x {
			x[i] = complex(lr.NormFloat64(), lr.NormFloat64())
		}
		back := MustIFFT(MustFFT(x))
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := FFT(make([]complex128, 12)); err == nil {
		t.Fatal("length 12 accepted")
	}
	if _, err := FFT(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestParsevalTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	spec := MustFFT(x)
	timeEnergy := Energy(x)
	freqEnergy := Energy(spec) / float64(len(x))
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Fatalf("Parseval violated: %g vs %g", timeEnergy, freqEnergy)
	}
}

func TestDBConversions(t *testing.T) {
	if DB(100) != 20 {
		t.Fatal("DB(100) != 20")
	}
	if math.Abs(FromDB(-30)-0.001) > 1e-12 {
		t.Fatal("FromDB(-30) != 0.001")
	}
	if !math.IsInf(DB(0), -1) {
		t.Fatal("DB(0) not -Inf")
	}
	// -Inf entries contribute nothing to power sums.
	if math.Abs(AddPowersDB(-10, math.Inf(-1))-(-10)) > 1e-12 {
		t.Fatal("AddPowersDB mishandles -Inf")
	}
	// Two equal powers add 3 dB.
	if math.Abs(AddPowersDB(-50, -50)-(-46.99)) > 0.01 {
		t.Fatal("3 dB rule violated")
	}
}

func TestBandPowerPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	fs := 20e6
	var sum float64
	for _, band := range [][2]float64{{-10e6, -5e6}, {-5e6, 0}, {0, 5e6}, {5e6, 10e6}} {
		p, err := BandPower(x, fs, band[0], band[1])
		if err != nil {
			t.Fatal(err)
		}
		sum += p
	}
	total := Power(x)
	if math.Abs(sum-total) > 1e-9*total {
		t.Fatalf("band powers sum to %g, total power %g", sum, total)
	}
}

func TestBandPowerLocatesTone(t *testing.T) {
	n := 4096
	fs := 20e6
	x := make([]complex128, n)
	for i := range x {
		phase := 2 * math.Pi * 3e6 * float64(i) / fs
		x[i] = cmplx.Exp(complex(0, phase))
	}
	inBand, err := BandPower(x, fs, 2e6, 4e6)
	if err != nil {
		t.Fatal(err)
	}
	outBand, err := BandPower(x, fs, -4e6, -2e6)
	if err != nil {
		t.Fatal(err)
	}
	if inBand < 0.99 || outBand > 0.01 {
		t.Fatalf("tone power in-band %g, out-of-band %g", inBand, outBand)
	}
}

func TestFrequencyShiftMovesTone(t *testing.T) {
	n := 2048
	fs := 20e6
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1 // DC
	}
	shifted := FrequencyShift(x, fs, 5e6)
	p, err := BandPower(shifted, fs, 4e6, 6e6)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.99 {
		t.Fatalf("shifted tone has only %g power in target band", p)
	}
}

func TestMixIntoRespectsBounds(t *testing.T) {
	dst := make([]complex128, 4)
	src := []complex128{1, 1, 1, 1}
	MixInto(dst, src, 2, -2) // first two samples fall before dst
	if dst[0] != 2 || dst[1] != 2 || dst[2] != 0 {
		t.Fatalf("MixInto result %v", dst)
	}
}

func TestScaleToPower(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := make([]complex128, 512)
	for i := range x {
		x[i] = complex(rng.NormFloat64()*3, rng.NormFloat64()*3)
	}
	ScaleToPower(x, 0.5)
	if p := Power(x); math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("power after scaling %g", p)
	}
	// Zero signal is left unchanged.
	z := make([]complex128, 4)
	ScaleToPower(z, 1)
	if Power(z) != 0 {
		t.Fatal("zero signal gained power")
	}
}

func TestMaxAbs(t *testing.T) {
	if MaxAbs([]complex128{complex(3, 4), 1}) != 5 {
		t.Fatal("MaxAbs wrong")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPeriodogramValidation(t *testing.T) {
	if _, err := Periodogram(make([]complex128, 64), 12); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	if _, err := Periodogram(make([]complex128, 8), 16); err == nil {
		t.Error("short signal accepted")
	}
}

func TestResampleFFTPreservesSpectrum(t *testing.T) {
	// A 3 MHz tone at 20 MS/s upsampled x2 stays a 3 MHz tone at 40 MS/s.
	n := 2048
	x := make([]complex128, n)
	for i := range x {
		phase := 2 * math.Pi * 3e6 * float64(i) / 20e6
		x[i] = cmplx.Exp(complex(0, phase))
	}
	up, err := ResampleFFT(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 2*n {
		t.Fatalf("length %d", len(up))
	}
	inBand, err := BandPower(up, 40e6, 2e6, 4e6)
	if err != nil {
		t.Fatal(err)
	}
	imaging, err := BandPower(up, 40e6, 16e6, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	if inBand < 0.9 || imaging > 1e-3 {
		t.Fatalf("in-band %g, imaging %g", inBand, imaging)
	}
	// Power is preserved.
	if math.Abs(Power(up)-Power(x)) > 0.05 {
		t.Fatalf("power changed: %g -> %g", Power(x), Power(up))
	}
}

func TestResampleFFTValidation(t *testing.T) {
	if _, err := ResampleFFT(nil, 0); err == nil {
		t.Fatal("factor 0 accepted")
	}
	out, err := ResampleFFT([]complex128{1, 2}, 1)
	if err != nil || len(out) != 2 {
		t.Fatal("identity resample broken")
	}
}

func TestLowPassFIRRejection(t *testing.T) {
	taps, err := LowPassFIR(40e6, 1.3e6, 129)
	if err != nil {
		t.Fatal(err)
	}
	// In-band tone passes, far-out tone is strongly attenuated.
	n := 4096
	mk := func(freq float64) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			phase := 2 * math.Pi * freq * float64(i) / 40e6
			x[i] = cmplx.Exp(complex(0, phase))
		}
		return x
	}
	inTone := Filter(mk(0.5e6), taps)
	outTone := Filter(mk(8e6), taps)
	if p := Power(inTone[200 : n-200]); p < 0.8 {
		t.Fatalf("in-band tone attenuated to %g", p)
	}
	if p := Power(outTone[200 : n-200]); p > 1e-3 {
		t.Fatalf("8 MHz tone only attenuated to %g", p)
	}
}

func TestLowPassFIRValidation(t *testing.T) {
	if _, err := LowPassFIR(40e6, 1e6, 128); err == nil {
		t.Fatal("even tap count accepted")
	}
	if _, err := LowPassFIR(40e6, 30e6, 129); err == nil {
		t.Fatal("cutoff above Nyquist accepted")
	}
}
