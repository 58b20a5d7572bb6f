// Package baseline implements the two alternatives the SledZig paper
// positions itself against (sections III-B and VI), so the comparison the
// paper makes in prose can be reproduced as numbers:
//
//   - NullSubcarriers is the EmBee-style PHY modification: the transmitter
//     zeroes the subcarriers overlapping the ZigBee channel. It achieves
//     ideal suppression but is incompatible with standard receivers (the
//     nulled subcarriers carry no data, the interleaver-mapped bits on
//     them are simply lost unless the PHY is redesigned).
//   - GainReduction lowers the whole transmit power until the ZigBee
//     channel sees the same relief SledZig provides; the cost is paid as
//     full-band SNR at the WiFi receiver.
package baseline

import (
	"fmt"
	"math/rand"

	"sledzig/internal/bits"
	"sledzig/internal/channel"
	"sledzig/internal/core"
	"sledzig/internal/dsp"
	"sledzig/internal/wifi"
)

// NullSubcarriers renders a frame whose subcarriers inside ch's window are
// forced to zero after standard modulation — the EmBee-style reservation.
// The returned waveform is NOT decodable by a standard 802.11 receiver:
// the bits mapped onto the nulled subcarriers are erased on the air.
type NullSubcarriers struct {
	Mode       wifi.Mode
	Convention wifi.Convention
	Channel    core.ZigBeeChannel
}

// Waveform builds the DATA waveform of a standard frame with the
// overlapped data subcarriers nulled.
func (n NullSubcarriers) Waveform(payload []byte) ([]complex128, error) {
	if !n.Channel.Valid() {
		return nil, fmt.Errorf("baseline: invalid channel %d", int(n.Channel))
	}
	frame, err := wifi.Transmitter{Mode: n.Mode, Convention: n.Convention}.Frame(payload)
	if err != nil {
		return nil, err
	}
	ptsPerSymbol, err := frame.DataPoints()
	if err != nil {
		return nil, err
	}
	out := make([]complex128, 0, len(ptsPerSymbol)*wifi.SymbolLength)
	for s, pts := range ptsPerSymbol {
		mod := make([]complex128, len(pts))
		copy(mod, pts)
		for _, i := range n.Channel.DataIndices() {
			mod[i] = 0
		}
		sym, err := wifi.AssembleSymbol(mod, s+1)
		if err != nil {
			return nil, err
		}
		out = append(out, sym...)
	}
	return out, nil
}

// ErasedBitsPerSymbol counts the coded bits lost on the nulled
// subcarriers: without a PHY redesign these erase 8 subcarriers' worth of
// coded bits per symbol, which is why EmBee needs hardware modification.
func (n NullSubcarriers) ErasedBitsPerSymbol() int {
	return len(n.Channel.DataSubcarriers()) * n.Mode.Modulation.BitsPerSubcarrier()
}

// CapacityLossFraction is the share of data subcarriers sacrificed when
// the PHY is redesigned to skip the nulled subcarriers entirely.
func (n NullSubcarriers) CapacityLossFraction() float64 {
	return float64(len(n.Channel.DataSubcarriers())) / float64(wifi.NumDataSubcarriers)
}

// GainReduction models the "just turn the power down" strawman: the whole
// transmit power drops by ReliefDB so the ZigBee channel sees the same
// in-band relief SledZig would provide.
type GainReduction struct {
	// ReliefDB is the in-band reduction to match (e.g. SledZig's measured
	// drop for a modulation/channel pair).
	ReliefDB float64
}

// WiFiRangePenalty reports the cost: the distance at which the WiFi link
// still meets minSNR shrinks by the returned factor (path-loss exponent
// 2: every 6 dB halves the range).
func (g GainReduction) WiFiRangePenalty() float64 {
	return dsp.FromDB(g.ReliefDB / 2) // amplitude-domain: 10^(dB/20)
}

// MaxWiFiRange returns the largest WiFi link distance (meters) at which a
// mode still decodes, with and without the gain reduction, using the
// calibrated link budget.
func (g GainReduction) MaxWiFiRange(minSNRDB float64) (normal, reduced float64) {
	// Solve WiFiAtWiFiRx(d) - floor = minSNR for d.
	budget := channel.WiFiAtWiFiRxAt0p5mDBm - channel.WiFiRxNoiseFloorDBm - minSNRDB
	normal = 0.5 * dsp.FromDB(budget/2)
	reduced = 0.5 * dsp.FromDB((budget-g.ReliefDB)/2)
	return normal, reduced
}

// Comparison summarizes the three mechanisms for one (mode, channel) pair.
type Comparison struct {
	Mode    wifi.Mode
	Channel core.ZigBeeChannel

	// In-band suppression (dB, measured from waveforms).
	SledZigDropDB float64
	NullDropDB    float64
	GainDropDB    float64 // by construction equal to SledZigDropDB

	// What each costs the WiFi link.
	SledZigThroughputLoss float64 // fraction of data rate
	NullCapacityLoss      float64 // fraction of subcarriers (PHY redesign)
	GainRangeShrink       float64 // WiFi range division factor

	// Standards compatibility.
	SledZigStandard bool // true: plain payload encoding
	NullStandard    bool // false: receiver must know the null map
}

// Compare measures all three mechanisms on real waveforms.
func Compare(conv wifi.Convention, mode wifi.Mode, ch core.ZigBeeChannel, payload []byte) (*Comparison, error) {
	normalFrame, err := wifi.Transmitter{Mode: mode, Convention: conv}.Frame(payload)
	if err != nil {
		return nil, err
	}
	normalWave, err := normalFrame.DataWaveform()
	if err != nil {
		return nil, err
	}
	plan, err := core.NewPlan(conv, mode, ch)
	if err != nil {
		return nil, err
	}
	sledRes, err := (&core.Encoder{Plan: plan}).Encode(payload)
	if err != nil {
		return nil, err
	}
	sledWave, err := sledRes.Frame.DataWaveform()
	if err != nil {
		return nil, err
	}
	nuller := NullSubcarriers{Mode: mode, Convention: conv, Channel: ch}
	nullWave, err := nuller.Waveform(payload)
	if err != nil {
		return nil, err
	}

	lo, hi := ch.BandHz()
	band := func(w []complex128) (float64, error) {
		p, err := dsp.BandPower(w, wifi.SampleRate, lo, hi)
		if err != nil {
			return 0, err
		}
		return dsp.DB(p), nil
	}
	pn, err := band(normalWave)
	if err != nil {
		return nil, err
	}
	ps, err := band(sledWave)
	if err != nil {
		return nil, err
	}
	pz, err := band(nullWave)
	if err != nil {
		return nil, err
	}

	gr := GainReduction{ReliefDB: pn - ps}
	return &Comparison{
		Mode:                  mode,
		Channel:               ch,
		SledZigDropDB:         pn - ps,
		NullDropDB:            pn - pz,
		GainDropDB:            pn - ps,
		SledZigThroughputLoss: plan.ThroughputLossFraction(),
		NullCapacityLoss:      nuller.CapacityLossFraction(),
		GainRangeShrink:       gr.WiFiRangePenalty(),
		SledZigStandard:       true,
		NullStandard:          false,
	}, nil
}

// randomPayload is a convenience for callers without their own data.
func RandomPayload(seed int64, n int) []byte {
	return bits.RandomBytes(newRand(seed), n)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
