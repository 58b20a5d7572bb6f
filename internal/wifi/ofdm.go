package wifi

import (
	"fmt"
	"sync"

	"sledzig/internal/dsp"
)

// pilotPolarity is the 127-element pilot polarity sequence p_n of
// 802.11-2012 (18.3.5.10); symbol n uses p_{n mod 127}.
var pilotPolarity = [127]int8{
	1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1,
	-1, -1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, 1, 1, -1, 1,
	1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1, 1, -1, -1, -1, 1,
	-1, 1, -1, -1, 1, -1, -1, 1, 1, 1, 1, 1, -1, -1, 1, 1,
	-1, -1, 1, -1, 1, -1, 1, 1, -1, -1, -1, 1, 1, -1, -1, -1,
	-1, 1, -1, -1, 1, -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, 1,
	-1, -1, -1, -1, -1, 1, -1, 1, 1, -1, 1, -1, 1, 1, 1, -1,
	-1, 1, -1, -1, -1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1,
}

// PilotPolarity returns p_n for OFDM symbol index n (SIGNAL symbol is
// n = 0, first DATA symbol is n = 1).
func PilotPolarity(n int) float64 {
	return float64(pilotPolarity[n%len(pilotPolarity)])
}

// AssembleSymbol builds the 64-entry frequency-domain vector for one OFDM
// symbol from 48 data points (ascending subcarrier order) and the symbol
// index (for pilot polarity), then returns the 80-sample time-domain symbol
// (16-sample cyclic prefix + 64-sample IFFT output).
func AssembleSymbol(data []complex128, symbolIndex int) ([]complex128, error) {
	freq, err := SubcarrierMap(data, symbolIndex)
	if err != nil {
		return nil, err
	}
	return TimeDomain(freq), nil
}

// symbolScratch holds the frequency- and time-domain work vectors of one
// OFDM symbol synthesis; AppendSymbol pools these so steady-state waveform
// rendering does not allocate per symbol.
type symbolScratch struct {
	freq []complex128
	td   []complex128
}

var symbolScratchPool = sync.Pool{New: func() any {
	return &symbolScratch{
		freq: make([]complex128, NumSubcarriers),
		td:   make([]complex128, NumSubcarriers),
	}
}}

// AppendSymbol is AssembleSymbol in append form: it appends the 80-sample
// cyclic-prefixed time-domain symbol to dst and returns the extended
// slice. All intermediate buffers come from an internal pool, so a caller
// that reuses dst's capacity renders symbols allocation-free.
func AppendSymbol(dst []complex128, data []complex128, symbolIndex int) ([]complex128, error) {
	s := symbolScratchPool.Get().(*symbolScratch)
	defer symbolScratchPool.Put(s)
	if err := SubcarrierMapInto(s.freq, data, symbolIndex); err != nil {
		return dst, err
	}
	if err := dsp.IFFTInto(s.td, s.freq); err != nil {
		return dst, err
	}
	dst = append(dst, s.td[NumSubcarriers-CPLength:]...)
	dst = append(dst, s.td...)
	return dst, nil
}

// SubcarrierMap places 48 data points and the 4 pilots into the 64-bin
// frequency-domain vector (bin k mod 64 for signed subcarrier k).
func SubcarrierMap(data []complex128, symbolIndex int) ([]complex128, error) {
	freq := make([]complex128, NumSubcarriers)
	if err := SubcarrierMapInto(freq, data, symbolIndex); err != nil {
		return nil, err
	}
	return freq, nil
}

// SubcarrierMapInto is SubcarrierMap writing into a caller-provided 64-bin
// vector, which is cleared first.
func SubcarrierMapInto(freq, data []complex128, symbolIndex int) error {
	if len(data) != NumDataSubcarriers {
		return fmt.Errorf("wifi: need %d data points, got %d", NumDataSubcarriers, len(data))
	}
	if len(freq) != NumSubcarriers {
		return fmt.Errorf("wifi: need %d bins, got %d", NumSubcarriers, len(freq))
	}
	clear(freq)
	for i, b := range dataBins {
		freq[b] = data[i]
	}
	p := complex(PilotPolarity(symbolIndex), 0)
	freq[bin(-21)] = p
	freq[bin(-7)] = p
	freq[bin(7)] = p
	freq[bin(21)] = -p
	return nil
}

// ExtractSubcarriers inverts SubcarrierMap for the data bins: given the
// 64-bin frequency vector of a received symbol it returns the 48 data
// points in ascending subcarrier order.
func ExtractSubcarriers(freq []complex128) ([]complex128, error) {
	out := make([]complex128, NumDataSubcarriers)
	if err := ExtractSubcarriersInto(out, freq); err != nil {
		return nil, err
	}
	return out, nil
}

// ExtractSubcarriersInto is ExtractSubcarriers writing the 48 data points
// into a caller-provided slice. No allocation.
func ExtractSubcarriersInto(dst, freq []complex128) error {
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

// bin converts a signed subcarrier index to an FFT bin index.
func bin(k int) int {
	return ((k % NumSubcarriers) + NumSubcarriers) % NumSubcarriers
}

// TimeDomain converts a 64-bin frequency vector to the 80-sample
// cyclic-prefixed time-domain symbol.
func TimeDomain(freq []complex128) []complex128 {
	td := dsp.MustIFFT(freq)
	out := make([]complex128, 0, SymbolLength)
	out = append(out, td[NumSubcarriers-CPLength:]...)
	out = append(out, td...)
	return out
}

// FrequencyDomain strips the cyclic prefix from an 80-sample symbol and
// returns its 64-bin FFT.
func FrequencyDomain(sym []complex128) ([]complex128, error) {
	out := make([]complex128, NumSubcarriers)
	if err := FrequencyDomainInto(out, sym); err != nil {
		return nil, err
	}
	return out, nil
}

// FrequencyDomainInto is FrequencyDomain computing the 64-bin FFT into a
// caller-provided vector (which must not alias sym). No allocation — the
// receiver's per-symbol hot loop uses it with pooled buffers.
func FrequencyDomainInto(dst, sym []complex128) error {
	if len(sym) != SymbolLength {
		return fmt.Errorf("wifi: symbol length %d != %d", len(sym), SymbolLength)
	}
	return dsp.FFTInto(dst, sym[CPLength:])
}
