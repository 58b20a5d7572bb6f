package dsp

import "math"

// FrequencyShift returns a copy of x multiplied by exp(j*2*pi*offset*t),
// moving its spectral content up by offset Hz at the given sample rate.
func FrequencyShift(x []complex128, sampleRate, offset float64) []complex128 {
	out := make([]complex128, len(x))
	step := 2 * math.Pi * offset / sampleRate
	for i, v := range x {
		phase := step * float64(i)
		out[i] = v * complex(math.Cos(phase), math.Sin(phase))
	}
	return out
}

// MixInto adds src (scaled by gain, delayed by delay samples) into dst in
// place. Samples of src falling outside dst are dropped, matching a receiver
// that only captures its own observation window.
func MixInto(dst, src []complex128, gain float64, delay int) {
	g := complex(gain, 0)
	for i, v := range src {
		j := i + delay
		if j < 0 || j >= len(dst) {
			continue
		}
		dst[j] += v * g
	}
}
