// Package ht40 extends SledZig to 40 MHz channels — the paper's footnote 1
// ("the similar idea can be easily extended to wider channel scenarios").
// It implements the 802.11n HT-40 single-stream numerology (128
// subcarriers, 108 data + 6 pilots, 18-column interleaver) on top of the
// shared scrambler/coder/QAM primitives, and reuses the core package's
// constraint solver to pin the subcarriers overlapping any of the EIGHT
// ZigBee channels a 40 MHz WiFi channel covers.
//
// Scope: the DATA-field pipeline (encode -> waveform -> decode). The HT
// preamble is out of scope; receivers operate symbol-aligned, which is all
// the interference analysis needs.
package ht40

import (
	"fmt"
	"math"
	"slices"

	"sledzig/internal/dsp"
	"sledzig/internal/wifi"
)

// HT-40 numerology (802.11n, single spatial stream).
const (
	NumSubcarriers     = 128
	NumDataSubcarriers = 108
	NumPilots          = 6
	CPLength           = 32
	SymbolLength       = NumSubcarriers + CPLength
	SampleRate         = 40e6
	SubcarrierSpacing  = SampleRate / NumSubcarriers // 312.5 kHz, as at 20 MHz
)

// pilotSubcarriers of the 40 MHz format.
var pilotSubcarriers = [NumPilots]int{-53, -25, -11, 11, 25, 53}

// pilotPattern is the single-stream 40 MHz pilot value pattern Psi.
var pilotPattern = [NumPilots]float64{1, 1, 1, -1, -1, 1}

// IsPilot reports whether signed subcarrier k carries a pilot.
func IsPilot(k int) bool {
	for _, p := range pilotSubcarriers {
		if k == p {
			return true
		}
	}
	return false
}

// IsNull reports whether signed subcarrier k carries no energy (DC region
// -1..1 and guards beyond +/-58).
func IsNull(k int) bool {
	if k >= -1 && k <= 1 {
		return true
	}
	return k < -58 || k > 58
}

// dataSubcarriers is DataSubcarriers, built once.
var dataSubcarriers = DataSubcarriers()

// dataIndex returns signed subcarrier k's position among the data
// subcarriers, or -1 when k carries no data.
func dataIndex(k int) int { return slices.Index(dataSubcarriers, k) }

// DataSubcarriers returns the 108 data subcarriers in ascending order.
func DataSubcarriers() []int {
	out := make([]int, 0, NumDataSubcarriers)
	for k := -58; k <= 58; k++ {
		if IsNull(k) || IsPilot(k) {
			continue
		}
		out = append(out, k)
	}
	return out
}

// CodedBitsPerSymbol returns N_CBPS for a mode on 40 MHz.
func CodedBitsPerSymbol(m wifi.Mode) int {
	return NumDataSubcarriers * m.Modulation.BitsPerSubcarrier()
}

// DataBitsPerSymbol returns N_DBPS for a mode on 40 MHz.
func DataBitsPerSymbol(m wifi.Mode) int {
	return CodedBitsPerSymbol(m) * m.CodeRate.Numerator() / m.CodeRate.Denominator()
}

// Interleaver: the HT structure with N_COL = 18 columns (and
// N_ROW = 6 N_BPSC rows); the legacy 20 MHz interleaver is the same shape
// with 16 columns. The third (frequency-rotation) permutation applies only
// to additional spatial streams and is omitted.
const interleaverColumns = 18

// InterleaveIndex maps coded-bit index k to its post-interleaving position.
func InterleaveIndex(m wifi.Modulation, k int) int {
	return wifi.InterleaveIndexCols(NumDataSubcarriers*m.BitsPerSubcarrier(), interleaverColumns, m, k)
}

// DeinterleaveIndex inverts InterleaveIndex.
func DeinterleaveIndex(m wifi.Modulation, j int) int {
	return wifi.DeinterleaveIndexCols(NumDataSubcarriers*m.BitsPerSubcarrier(), interleaverColumns, m, j)
}

// deinterleaveIndexC applies the pipeline convention (the Paper
// convention swaps the permutation direction, as at 20 MHz).
func deinterleaveIndexC(c wifi.Convention, m wifi.Modulation, j int) int {
	if c == wifi.ConventionPaper {
		return InterleaveIndex(m, j)
	}
	return DeinterleaveIndex(m, j)
}

// Channel is one of the eight ZigBee channels overlapping a 40 MHz WiFi
// channel, ascending in frequency. The 5 MHz raster alignment mirrors the
// 20 MHz case (paper Fig. 2): offsets -17, -12, ..., +18 MHz.
type Channel int

// Valid reports whether c is one of the eight overlapped channels.
func (c Channel) Valid() bool { return c >= 1 && c <= 8 }

// String names the channel.
func (c Channel) String() string { return fmt.Sprintf("HT40-CH%d", int(c)) }

// AllChannels returns the eight overlapped channels.
func AllChannels() []Channel {
	out := make([]Channel, 8)
	for i := range out {
		out[i] = Channel(i + 1)
	}
	return out
}

// OffsetHz returns the channel's center offset from the WiFi center.
func (c Channel) OffsetHz() float64 {
	return float64(int(c)-1)*5e6 - 17e6
}

// SubcarrierWindow returns the pinned window: the fully-overlapped
// subcarriers plus one adjacent on each side, as at 20 MHz.
func (c Channel) SubcarrierWindow() []int {
	center := c.OffsetHz() / SubcarrierSpacing
	half := 1e6 / SubcarrierSpacing
	lo := int(math.Ceil(center - half))
	hi := int(math.Floor(center + half))
	out := make([]int, 0, hi-lo+3)
	for k := lo - 1; k <= hi+1; k++ {
		out = append(out, k)
	}
	return out
}

// DataSubcarriersIn returns the data subcarriers inside the window.
func (c Channel) DataSubcarriersIn() []int {
	out := make([]int, 0, 8)
	for _, k := range c.SubcarrierWindow() {
		if !IsPilot(k) && !IsNull(k) {
			out = append(out, k)
		}
	}
	return out
}

// BandHz returns the channel band edges relative to the WiFi center.
func (c Channel) BandHz() (lo, hi float64) {
	return c.OffsetHz() - 1e6, c.OffsetHz() + 1e6
}

// SubcarrierMap places 108 data points and the 6 pilots into 128 bins.
func SubcarrierMap(data []complex128, symbolIndex int) ([]complex128, error) {
	if len(data) != NumDataSubcarriers {
		return nil, fmt.Errorf("ht40: need %d data points, got %d", NumDataSubcarriers, len(data))
	}
	freq := make([]complex128, NumSubcarriers)
	for i, k := range DataSubcarriers() {
		freq[bin(k)] = data[i]
	}
	pol := wifi.PilotPolarity(symbolIndex)
	for i, k := range pilotSubcarriers {
		freq[bin(k)] = complex(pol*pilotPattern[i], 0)
	}
	return freq, nil
}

// ExtractSubcarriers pulls the 108 data points from a 128-bin FFT output.
func ExtractSubcarriers(freq []complex128) ([]complex128, error) {
	if len(freq) != NumSubcarriers {
		return nil, fmt.Errorf("ht40: need %d bins, got %d", NumSubcarriers, len(freq))
	}
	out := make([]complex128, 0, NumDataSubcarriers)
	for _, k := range DataSubcarriers() {
		out = append(out, freq[bin(k)])
	}
	return out, nil
}

func bin(k int) int {
	return ((k % NumSubcarriers) + NumSubcarriers) % NumSubcarriers
}

// TimeDomain converts a 128-bin frequency vector to the 160-sample
// cyclic-prefixed symbol.
func TimeDomain(freq []complex128) []complex128 {
	td := dsp.MustIFFT(freq)
	out := make([]complex128, 0, SymbolLength)
	out = append(out, td[NumSubcarriers-CPLength:]...)
	out = append(out, td...)
	return out
}

// FrequencyDomain strips the CP and FFTs one symbol.
func FrequencyDomain(sym []complex128) ([]complex128, error) {
	if len(sym) != SymbolLength {
		return nil, fmt.Errorf("ht40: symbol length %d != %d", len(sym), SymbolLength)
	}
	return dsp.FFT(sym[CPLength:])
}
