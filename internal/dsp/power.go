package dsp

import (
	"fmt"
	"math"
	"sync"
)

// Power returns the mean squared magnitude of x (linear units). An empty
// slice has zero power.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return sum / float64(len(x))
}

// Energy returns the total squared magnitude of x.
func Energy(x []complex128) float64 {
	var sum float64
	for _, v := range x {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return sum
}

// DB converts a linear power ratio to decibels. Non-positive inputs map to
// -Inf, mirroring what a measurement device would report as "below floor".
func DB(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(p)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// AddPowersDB sums power quantities expressed in dB (e.g. dBm) and returns
// the total in the same dB units. -Inf entries contribute nothing.
func AddPowersDB(levels ...float64) float64 {
	var sum float64
	for _, l := range levels {
		if !math.IsInf(l, -1) {
			sum += FromDB(l)
		}
	}
	return DB(sum)
}

// Periodogram estimates the power spectral density of x using an N-point
// FFT with a rectangular window, averaging over consecutive segments. The
// result has length n with bin 0 at DC and negative frequencies in the
// upper half, and is normalized so that the mean over all bins equals the
// mean signal power.
func Periodogram(x []complex128, n int) ([]float64, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: periodogram size %d is not a power of two", n)
	}
	psd := make([]float64, n)
	if err := periodogramInto(psd, make([]complex128, n), x); err != nil {
		return nil, err
	}
	return psd, nil
}

// periodogramInto is Periodogram writing into psd, whose length is the
// (power-of-two) FFT size, with spec, of the same length, as the FFT
// output buffer.
func periodogramInto(psd []float64, spec []complex128, x []complex128) error {
	n := len(psd)
	if len(x) < n {
		return fmt.Errorf("dsp: signal length %d shorter than FFT size %d", len(x), n)
	}
	plan, err := PlanFor(n)
	if err != nil {
		return err
	}
	clear(psd)
	segments := 0
	for start := 0; start+n <= len(x); start += n {
		if err := plan.Forward(spec, x[start:start+n]); err != nil {
			return err
		}
		for i, v := range spec {
			psd[i] += real(v)*real(v) + imag(v)*imag(v)
		}
		segments++
	}
	scale := 1 / (float64(segments) * float64(n) * float64(n))
	for i := range psd {
		psd[i] *= scale
	}
	return nil
}

// bandPowerBins is BandPower's largest FFT size.
const bandPowerBins = 1024

// bandPowerScratch holds BandPower's periodogram buffers, pooled so band
// measurements allocate nothing for them.
type bandPowerScratch struct {
	psd  [bandPowerBins]float64
	spec [bandPowerBins]complex128
}

var bandPowerPool = sync.Pool{New: func() any { return new(bandPowerScratch) }}

// BandPower measures the mean power of x falling inside the frequency band
// [lo, hi] (Hz, relative to baseband center; negative frequencies allowed),
// given the sample rate. It integrates a periodogram over the band, so the
// sum over disjoint bands covering [-fs/2, fs/2) equals Power(x).
func BandPower(x []complex128, sampleRate, lo, hi float64) (float64, error) {
	if hi <= lo {
		return 0, fmt.Errorf("dsp: invalid band [%g, %g]", lo, hi)
	}
	n := bandPowerBins
	for len(x) < n && n > 8 {
		n /= 2
	}
	s := bandPowerPool.Get().(*bandPowerScratch)
	defer bandPowerPool.Put(s)
	psd := s.psd[:n]
	if err := periodogramInto(psd, s.spec[:n], x); err != nil {
		return 0, err
	}
	binWidth := sampleRate / float64(n)
	var sum float64
	for i := 0; i < n; i++ {
		// Map bin index to signed frequency.
		f := float64(i) * binWidth
		if i >= n/2 {
			f -= sampleRate
		}
		if f >= lo && f < hi {
			sum += psd[i]
		}
	}
	// The periodogram sums to the mean signal power across all bins, so
	// the in-band sum is directly the band's share of the power.
	return sum, nil
}

// MaxAbs returns the largest sample magnitude in x.
func MaxAbs(x []complex128) float64 {
	var m float64
	for _, v := range x {
		a := math.Hypot(real(v), imag(v))
		if a > m {
			m = a
		}
	}
	return m
}

// Scale multiplies every sample of x by g in place and returns x.
func Scale(x []complex128, g float64) []complex128 {
	c := complex(g, 0)
	for i := range x {
		x[i] *= c
	}
	return x
}

// ScaleToPower rescales x in place so its mean power equals target (linear).
// A zero-power signal is returned unchanged.
func ScaleToPower(x []complex128, target float64) []complex128 {
	p := Power(x)
	if p <= 0 {
		return x
	}
	return Scale(x, math.Sqrt(target/p))
}
