package wifi

import (
	"fmt"

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
	return AppendSymbol(make([]complex128, 0, SymbolLength), data, symbolIndex)
}

// AppendSymbol is AssembleSymbol in append form: it appends the 80-sample
// cyclic-prefixed time-domain symbol to dst and returns the extended
// slice. Its frequency- and time-domain vectors are fixed-size locals, so
// a caller that reuses dst's capacity renders symbols allocation-free.
func AppendSymbol(dst []complex128, data []complex128, symbolIndex int) ([]complex128, error) {
	var freq, td [NumSubcarriers]complex128
	if err := SubcarrierMapInto(freq[:], data, symbolIndex); err != nil {
		return dst, err
	}
	if err := dsp.IFFTInto(td[:], freq[:]); err != nil {
		return dst, err
	}
	dst = append(dst, td[NumSubcarriers-CPLength:]...)
	dst = append(dst, td[:]...)
	return dst, nil
}

// SubcarrierMapInto places 48 data points and the 4 pilots into the
// caller's 64-bin frequency-domain vector (bin k mod 64 for signed
// subcarrier k), which is cleared first.
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
