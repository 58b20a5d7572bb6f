package wifi

import (
	"math"
	"math/rand"
	"testing"

	"sledzig/internal/bits"
)

func TestNormalFrameMeetsMask(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	frame, err := Transmitter{Mode: Mode{QAM64, Rate23}}.Frame(bits.RandomBytes(rng, 2500))
	if err != nil {
		t.Fatal(err)
	}
	wave, err := frame.DataWaveform()
	if err != nil {
		t.Fatal(err)
	}
	// The rectangular-windowed OFDM spectrum decays slowly near the band
	// edge; allow the textbook 3 dB of periodogram slack.
	violations, err := CheckSpectralMask(wave, SampleRate, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) > 2 {
		t.Fatalf("%d mask violations on a normal frame: %+v", len(violations), violations[:2])
	}
}

func TestMaskLimitShape(t *testing.T) {
	cases := map[float64]float64{
		0: 0, 9e6: 0, 10e6: -10, 11e6: -20, 20e6: -28, 30e6: -40, 50e6: -40,
	}
	for f, want := range cases {
		if got := maskLimitDBr(f); got != want {
			t.Errorf("mask at %.0f MHz = %g dBr, want %g", f/1e6, got, want)
		}
		if got := maskLimitDBr(-f); got != want {
			t.Errorf("mask not symmetric at %.0f MHz", f/1e6)
		}
	}
}

func TestMaskCheckValidation(t *testing.T) {
	if _, err := CheckSpectralMask(make([]complex128, 10), SampleRate, 0); err == nil {
		t.Fatal("short waveform accepted")
	}
	if _, err := CheckSpectralMask(make([]complex128, 4096), SampleRate, 0); err == nil {
		t.Fatal("zero-energy waveform accepted")
	}
}

func TestMaskDetectsOutOfBandSpur(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	frame, err := Transmitter{Mode: Mode{QAM16, Rate12}}.Frame(bits.RandomBytes(rng, 400))
	if err != nil {
		t.Fatal(err)
	}
	wave, err := frame.DataWaveform()
	if err != nil {
		t.Fatal(err)
	}
	// Upsample to 40 MS/s and inject a strong spur at +15 MHz, where the
	// mask allows at most about -24 dBr.
	up := make([]complex128, 2*len(wave))
	for i, v := range wave {
		up[2*i] = v
		up[2*i+1] = v
	}
	for i := range up {
		phase := 2 * 3.141592653589793 * 15e6 * float64(i) / 40e6
		up[i] += complex(0.02*cos(phase), 0.02*sin(phase))
	}
	violations, err := CheckSpectralMask(up, 40e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range violations {
		if v.FreqHz > 13e6 && v.FreqHz < 17e6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("spur not flagged; violations: %+v", violations)
	}
}

func cos(x float64) float64 { return math.Cos(x) }
func sin(x float64) float64 { return math.Sin(x) }
