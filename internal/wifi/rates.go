// Package wifi implements a bit-exact IEEE 802.11 (a/g-style, 20 MHz) OFDM
// baseband PHY: scrambling, convolutional coding with puncturing, block
// interleaving, QAM mapping up to QAM-256, OFDM symbol assembly with pilots
// and cyclic prefix, preamble generation, and the corresponding receiver
// chain with a hard-decision Viterbi decoder.
//
// The package substitutes for the USRP N210 + GNU Radio 802.11 stack used
// in the SledZig paper: SledZig manipulates the bit -> constellation
// pipeline, and this package reproduces that pipeline exactly as the
// standard specifies it.
package wifi

import (
	"fmt"
	"slices"
)

// Modulation identifies the subcarrier modulation of the DATA field.
type Modulation int

// Supported subcarrier modulations. QAM-256 is borrowed from 802.11ac
// (VHT) as the paper does; on the 48-data-subcarrier 20 MHz format it
// simply extends the bits-per-subcarrier table.
const (
	BPSK Modulation = iota + 1
	QPSK
	QAM16
	QAM64
	QAM256
)

// String returns the conventional name of the modulation.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "QAM-16"
	case QAM64:
		return "QAM-64"
	case QAM256:
		return "QAM-256"
	default:
		return fmt.Sprintf("Modulation(%d)", int(m))
	}
}

// BitsPerSubcarrier returns N_BPSC for the modulation.
func (m Modulation) BitsPerSubcarrier() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	case QAM256:
		return 8
	default:
		return 0
	}
}

// Valid reports whether m is one of the supported modulations.
func (m Modulation) Valid() bool {
	return m >= BPSK && m <= QAM256
}

// CodeRate identifies the convolutional coding rate of the DATA field.
// All rates are derived from the rate-1/2 mother code by puncturing.
type CodeRate int

// Supported coding rates.
const (
	Rate12 CodeRate = iota + 1
	Rate23
	Rate34
	Rate56
)

// String returns the conventional name of the rate.
func (r CodeRate) String() string {
	switch r {
	case Rate12:
		return "1/2"
	case Rate23:
		return "2/3"
	case Rate34:
		return "3/4"
	case Rate56:
		return "5/6"
	default:
		return fmt.Sprintf("CodeRate(%d)", int(r))
	}
}

// Valid reports whether r is one of the supported rates.
func (r CodeRate) Valid() bool {
	return r >= Rate12 && r <= Rate56
}

// Numerator and Denominator give the rate as a fraction.
func (r CodeRate) Numerator() int {
	switch r {
	case Rate12:
		return 1
	case Rate23:
		return 2
	case Rate34:
		return 3
	case Rate56:
		return 5
	default:
		return 0
	}
}

// Denominator returns the denominator of the rate fraction.
func (r CodeRate) Denominator() int {
	switch r {
	case Rate12:
		return 2
	case Rate23:
		return 3
	case Rate34:
		return 4
	case Rate56:
		return 6
	default:
		return 0
	}
}

// OFDM numerology for the 20 MHz 802.11a/g format.
const (
	// NumSubcarriers is the IFFT size of a 20 MHz channel.
	NumSubcarriers = 64
	// NumDataSubcarriers carry coded payload bits.
	NumDataSubcarriers = 48
	// NumPilotSubcarriers carry the fixed pilot tones.
	NumPilotSubcarriers = 4
	// CPLength is the cyclic-prefix length in samples.
	CPLength = 16
	// SymbolLength is the full OFDM symbol length in samples (CP + FFT).
	SymbolLength = NumSubcarriers + CPLength
	// SampleRate is the complex baseband sample rate in Hz.
	SampleRate = 20e6
	// SubcarrierSpacing in Hz (20 MHz / 64).
	SubcarrierSpacing = SampleRate / NumSubcarriers
)

// PilotSubcarriers lists the pilot subcarrier indices (signed, DC = 0).
var pilotSubcarriers = [NumPilotSubcarriers]int{-21, -7, 7, 21}

// PilotSubcarriers returns the pilot subcarrier indices in ascending
// order, as a view shared by every caller that must not be modified.
func PilotSubcarriers() []int { return pilotSubcarriers[:] }

// dataSubcarriers is the precomputed ascending list of the 48 data
// subcarrier indices: -26..-1 and 1..26 with 0, +/-7 and +/-21 excluded.
var dataSubcarriers = func() [NumDataSubcarriers]int {
	var out [NumDataSubcarriers]int
	i := 0
	for k := -26; k <= 26; k++ {
		switch k {
		case 0, -21, -7, 7, 21:
			continue
		}
		out[i] = k
		i++
	}
	return out
}()

// dataBins is the FFT bin index of each data subcarrier, in the same
// order as dataSubcarriers — the hot-path form of bin(DataSubcarriers()).
var dataBins = func() [NumDataSubcarriers]int {
	var out [NumDataSubcarriers]int
	for i, k := range dataSubcarriers {
		out[i] = ((k % NumSubcarriers) + NumSubcarriers) % NumSubcarriers
	}
	return out
}()

// DataSubcarriers returns the 48 data subcarrier indices in ascending
// frequency order: -26..-1 and 1..26 with 0, +/-7 and +/-21 excluded, as a
// view shared by every caller that must not be modified.
func DataSubcarriers() []int { return dataSubcarriers[:] }

// DataIndex returns the position of signed subcarrier k in
// DataSubcarriers(), or -1 when k is a pilot or null subcarrier.
func DataIndex(k int) int { return slices.Index(dataSubcarriers[:], k) }

// Mode is a (modulation, coding rate) pair — the knobs the SledZig paper
// sweeps. Zero value is invalid; construct with the fields set.
type Mode struct {
	Modulation Modulation
	CodeRate   CodeRate
}

// String renders the mode as e.g. "QAM-64 r=3/4".
func (m Mode) String() string {
	return fmt.Sprintf("%s r=%s", m.Modulation, m.CodeRate)
}

// Validate returns an error when the pair is not a supported combination.
func (m Mode) Validate() error {
	if !m.Modulation.Valid() {
		return fmt.Errorf("wifi: invalid modulation %d", int(m.Modulation))
	}
	if !m.CodeRate.Valid() {
		return fmt.Errorf("wifi: invalid code rate %d", int(m.CodeRate))
	}
	return nil
}

// CodedBitsPerSymbol returns N_CBPS: coded bits carried by one OFDM symbol.
func (m Mode) CodedBitsPerSymbol() int {
	return NumDataSubcarriers * m.Modulation.BitsPerSubcarrier()
}

// DataBitsPerSymbol returns N_DBPS: information bits per OFDM symbol.
func (m Mode) DataBitsPerSymbol() int {
	return m.CodedBitsPerSymbol() * m.CodeRate.Numerator() / m.CodeRate.Denominator()
}

// PaperModes lists the (modulation, rate) combinations evaluated in the
// SledZig paper's Tables III and IV, in table order.
//
// Note: the paper labels the second QAM-16 row "2/3", but its own
// bits-per-symbol figure (144) and throughput-loss figure (9.72 %) match
// rate 3/4 on the 20 MHz format (N_CBPS = 192). We therefore implement the
// row as 3/4; EXPERIMENTS.md records the discrepancy.
func PaperModes() []Mode {
	return []Mode{
		{QAM16, Rate12},
		{QAM16, Rate34},
		{QAM64, Rate23},
		{QAM64, Rate34},
		{QAM64, Rate56},
		{QAM256, Rate34},
		{QAM256, Rate56},
	}
}
