package wifi

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Frame synchronization for captures that do not begin at the PPDU's
// first sample: the classic two-stage scheme. Stage one detects the
// short-training plateau with a lag-16 autocorrelation (Schmidl&Cox
// style); stage two pins the exact symbol boundary by cross-correlating
// against the known long training symbol.

// Synchronizer locates PPDUs in a capture.
type Synchronizer struct {
	// PlateauThreshold is the normalized autocorrelation level that
	// counts as "inside the STS" (default 0.8).
	PlateauThreshold float64
	// MinPlateau is how many consecutive samples must exceed the
	// threshold before a detection is declared (default 64).
	MinPlateau int
}

func (s Synchronizer) threshold() float64 {
	if s.PlateauThreshold == 0 {
		return 0.8
	}
	return s.PlateauThreshold
}

func (s Synchronizer) minPlateau() int {
	if s.MinPlateau == 0 {
		return 64
	}
	return s.MinPlateau
}

// Detect returns the sample index of the PPDU start (first STS sample).
// It errors when no plateau is found.
func (s Synchronizer) Detect(capture []complex128) (int, error) {
	if len(capture) < PreambleLength+SymbolLength {
		return 0, fmt.Errorf("wifi: capture of %d samples too short", len(capture))
	}
	coarse, err := s.detectCoarse(capture)
	if err != nil {
		return 0, err
	}
	return s.refineWithLTS(capture, coarse)
}

// detectCoarse finds the start of the lag-16 autocorrelation plateau.
func (s Synchronizer) detectCoarse(capture []complex128) (int, error) {
	const lag = 16
	win := 48 // correlation window inside the plateau
	need := s.minPlateau()
	run := 0
	for n := 0; n+win+lag < len(capture); n++ {
		var corr complex128
		var energy float64
		for i := 0; i < win; i++ {
			a := capture[n+i]
			b := capture[n+i+lag]
			corr += a * cmplx.Conj(b)
			energy += real(b)*real(b) + imag(b)*imag(b)
		}
		metric := 0.0
		if energy > 0 {
			metric = cmplx.Abs(corr) / energy
		}
		if metric > s.threshold() && energy > 0 {
			run++
			if run >= need {
				return n - run + 1, nil
			}
		} else {
			run = 0
		}
	}
	return 0, fmt.Errorf("wifi: no STS plateau found")
}

// refineWithLTS cross-correlates the known LTS around the coarse estimate
// and back-computes the PPDU start.
func (s Synchronizer) refineWithLTS(capture []complex128, coarse int) (int, error) {
	ref := preamble()[192 : 192+NumSubcarriers] // one LTS period, synthesized once
	var refEnergy float64
	for _, v := range ref {
		refEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	// The first LTS period begins 192 samples after the PPDU start; probe
	// a window around the coarse guess.
	bestOff, bestScore := -1, 0.0
	lo := coarse + 192 - 40
	if lo < 0 {
		lo = 0
	}
	hi := coarse + 192 + 40
	for off := lo; off <= hi && off+len(ref) <= len(capture); off++ {
		var corr complex128
		var segEnergy float64
		for i, r := range ref {
			v := capture[off+i]
			corr += v * cmplx.Conj(r)
			segEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		if segEnergy == 0 {
			continue
		}
		score := cmplx.Abs(corr) / math.Sqrt(refEnergy*segEnergy)
		if score > bestScore {
			bestScore = score
			bestOff = off
		}
	}
	if bestOff < 0 || bestScore < 0.5 {
		return 0, fmt.Errorf("wifi: LTS correlation failed (best %.2f)", bestScore)
	}
	// Two candidates (the LTS repeats at +64); pick the earlier period and
	// derive the PPDU start.
	start := bestOff - 192
	if start < 0 {
		// The peak matched the second LTS period.
		start = bestOff - 192 - 64
	}
	if start < 0 {
		return 0, fmt.Errorf("wifi: LTS peak precedes capture start")
	}
	return start, nil
}

// ReceiveUnsynchronized detects the PPDU in a capture, corrects its
// carrier offset, and decodes it.
func (s Synchronizer) ReceiveUnsynchronized(r Receiver, capture []complex128) (*RxResult, int, error) {
	start, err := s.Detect(capture)
	if err != nil {
		return nil, 0, err
	}
	res, _, err := r.ReceiveWithCFO(capture[start:])
	if err != nil {
		return nil, start, err
	}
	return res, start, nil
}
