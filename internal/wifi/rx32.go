package wifi

import (
	"fmt"
	"math/cmplx"

	"sledzig/internal/dsp"
)

// Complex64 stages of the receive pipeline (receiveOnce in rx.go).
//
// The capture is rounded to complex64 once on entry; channel estimation,
// per-symbol FFTs, equalization, and demapping then run entirely on
// 8-byte samples, halving the memory bandwidth of the per-symbol hot
// loop. Two further instruction-level choices ride on the width:
//
//   - equalization multiplies by precomputed reciprocal gains (1/h,
//     computed once per frame in float64 and rounded) instead of dividing
//     per point — complex division is by far the slowest primitive in the
//     loop;
//   - the max-log soft demapper accumulates its distance search in
//     float32 (see demap.go), which the LLR subtraction then widens.
//
// Precision: one float32 rounding per input sample plus ~6 butterfly
// stages and one multiply leaves the equalized constellation points
// within ~1e-5 relative of a complex128 receiver — orders of magnitude
// below the decision distance of QAM-256 — and rx32_test.go bounds the
// gap against a complex128 oracle. Results (RxResult.DataPoints) are
// widened back to complex128, so downstream consumers (channel
// detection, EVM measurement) are width-agnostic.

// decodeSignalSymbolInto32 decodes the SIGNAL points in s.pts32 through
// the result's scratch: BPSK demap into s.symBits, then decodeSignal. It
// runs before the DATA loop, which regrows the same buffers for the
// signalled mode.
func decodeSignalSymbolInto32(s *rxScratch) (Mode, int, error) {
	s.symBits = grow(s.symBits, NumDataSubcarriers)
	if err := ConventionIEEE.DemapAll64Into(s.symBits, signalMode.Modulation, s.pts32[:]); err != nil {
		return Mode{}, 0, err
	}
	return s.decodeSignal()
}

// equalizeSymbolInto32 applies the LTS channel estimate held in s, as a
// multiply with the reciprocal gains prepared by estimateChannelInto32,
// and then removes the common phase error measured on the four pilots —
// the standard defense against residual carrier offset and phase noise,
// without which long frames rotate off the constellation. The 48
// equalized data points are written into pts; s.freq32 is clobbered.
func equalizeSymbolInto32(pts []complex64, s *rxScratch, sym []complex64, symbolIndex int) error {
	if len(sym) != SymbolLength {
		return fmt.Errorf("wifi: symbol length %d != %d", len(sym), SymbolLength)
	}
	if err := dsp.FFTInto32(s.freq32[:], sym[CPLength:]); err != nil {
		return err
	}
	if err := extractSubcarriersInto32(pts, s.freq32[:]); err != nil {
		return err
	}
	for i := range pts {
		pts[i] *= s.hInv32[i]
	}
	// Common phase error from the four pilots; the reciprocal pilot gains
	// make this multiplies only. The tiny 4-term sum and the unit-modulus
	// normalization run in float64 — they are per symbol, not per point.
	var cpe complex128
	pol := PilotPolarity(symbolIndex)
	for i, k := range pilotSubcarriers {
		expected := pol
		if k == 21 {
			expected = -pol
		}
		cpe += complex128(s.freq32[bin(k)]*s.hPilot32[i]) * complex(expected, 0)
	}
	if cpe != 0 {
		rot := cmplx.Conj(cpe / complex(cmplx.Abs(cpe), 0))
		rot32 := complex(float32(real(rot)), float32(imag(rot)))
		for i := range pts {
			pts[i] *= rot32
		}
	}
	return nil
}

// extractSubcarriersInto32 is ExtractSubcarriersInto on complex64 bins.
func extractSubcarriersInto32(dst, freq []complex64) error {
	if len(freq) != NumSubcarriers {
		return fmt.Errorf("wifi: need %d bins, got %d", NumSubcarriers, len(freq))
	}
	if len(dst) != NumDataSubcarriers {
		return fmt.Errorf("wifi: need %d data points, got %d", NumDataSubcarriers, len(dst))
	}
	for i, b := range dataBins {
		dst[i] = freq[b]
	}
	return nil
}

// estimateChannelInto32 derives the channel estimate from the two long
// training symbols (samples 192..320 of the preamble): one gain per data
// subcarrier, plus the four pilot-subcarrier gains used for common-phase
// tracking. It stores reciprocal gains (1/h) so equalization multiplies
// instead of divides; the 52 reciprocals are computed in float64 once per
// frame and rounded to complex64. s.freq32 and s.pts32 are clobbered.
func estimateChannelInto32(s *rxScratch, waveform []complex64) error {
	ref, ltsf := ltsCached()
	var h [NumDataSubcarriers]complex128
	var hPilot [NumPilotSubcarriers]complex128
	for rep := 0; rep < 2; rep++ {
		// The LTS repetitions are contiguous, so the 64-sample FFT window
		// can be taken directly — no cyclic prefix to strip.
		start := 160 + 32 + rep*NumSubcarriers
		if err := dsp.FFTInto32(s.freq32[:], waveform[start:start+NumSubcarriers]); err != nil {
			return err
		}
		if err := extractSubcarriersInto32(s.pts32[:], s.freq32[:]); err != nil {
			return err
		}
		for i := range h {
			h[i] += complex128(s.pts32[i]) / ref[i]
		}
		for i, k := range pilotSubcarriers {
			hPilot[i] += complex128(s.freq32[bin(k)]) / ltsf[bin(k)]
		}
	}
	for i := range h {
		h[i] /= 2
		if h[i] == 0 {
			return fmt.Errorf("wifi: channel estimate is zero on data subcarrier %d", i)
		}
		inv := 1 / h[i]
		s.hInv32[i] = complex(float32(real(inv)), float32(imag(inv)))
	}
	for i := range hPilot {
		hPilot[i] /= 2
		if hPilot[i] == 0 {
			return fmt.Errorf("wifi: channel estimate is zero on pilot %d", i)
		}
		inv := 1 / hPilot[i]
		s.hPilot32[i] = complex(float32(real(inv)), float32(imag(inv)))
	}
	return nil
}
