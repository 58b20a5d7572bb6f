package wifi

import (
	"fmt"
	"math"

	"sledzig/internal/dsp"
)

// The 802.11 20 MHz transmit spectral mask (17.3.9.3): 0 dBr inside
// +/-9 MHz, then -20 dBr at 11 MHz, -28 dBr at 20 MHz, -40 dBr beyond
// 30 MHz, linearly interpolated in between. SledZig only moves energy
// between constellation points, so its frames must stay mask-compliant —
// checked constructively in tests.

// maskLimitDBr returns the mask limit at |f| Hz relative to the carrier.
func maskLimitDBr(f float64) float64 {
	a := math.Abs(f)
	switch {
	case a <= 9e6:
		return 0
	case a <= 11e6:
		return -20 * (a - 9e6) / 2e6
	case a <= 20e6:
		return -20 - 8*(a-11e6)/9e6
	case a <= 30e6:
		return -28 - 12*(a-20e6)/10e6
	default:
		return -40
	}
}

// MaskViolation describes one offending PSD bin.
type MaskViolation struct {
	FreqHz   float64
	LevelDBr float64
	LimitDBr float64
}

// CheckSpectralMask measures a waveform's PSD against the 20 MHz transmit
// mask and returns any violations. sampleRate must cover the mask region
// of interest (the 20 MS/s baseband checks the in-band +/-10 MHz part;
// a 40 MS/s capture extends to the first stop-band).
//
// The reference (0 dBr) level is the mean PSD over the central +/-8 MHz.
// A small tolerance absorbs periodogram variance on short frames.
func CheckSpectralMask(wave []complex128, sampleRate, toleranceDB float64) ([]MaskViolation, error) {
	if len(wave) < 1024 {
		return nil, fmt.Errorf("wifi: waveform of %d samples too short for a mask check", len(wave))
	}
	const nBins = 512
	raw, err := dsp.Periodogram(wave, nBins)
	if err != nil {
		return nil, err
	}
	// Smooth with a moving average (~200 kHz at 20 MS/s), the equivalent
	// of a spectrum analyzer's resolution bandwidth; single periodogram
	// bins of QAM data fluctuate by several dB.
	const half = 2
	psd := make([]float64, nBins)
	for i := range psd {
		for k := -half; k <= half; k++ {
			psd[i] += raw[(i+k+nBins)%nBins]
		}
		psd[i] /= 2*half + 1
	}
	freq := func(i int) float64 {
		f := float64(i) * sampleRate / nBins
		if i >= nBins/2 {
			f -= sampleRate
		}
		return f
	}
	// Reference level over the central band.
	var ref float64
	var n int
	for i := 0; i < nBins; i++ {
		if math.Abs(freq(i)) <= 8e6 {
			ref += psd[i]
			n++
		}
	}
	if n == 0 || ref == 0 {
		return nil, fmt.Errorf("wifi: no in-band energy to reference the mask against")
	}
	ref /= float64(n)

	var out []MaskViolation
	for i := 0; i < nBins; i++ {
		f := freq(i)
		level := dsp.DB(psd[i] / ref)
		limit := maskLimitDBr(f)
		if level > limit+toleranceDB {
			out = append(out, MaskViolation{FreqHz: f, LevelDBr: level, LimitDBr: limit})
		}
	}
	return out, nil
}
