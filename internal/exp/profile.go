package exp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"sledzig/internal/channel"
	"sledzig/internal/codec"
	"sledzig/internal/core"
	"sledzig/internal/dsp"
	"sledzig/internal/mac"
	"sledzig/internal/wifi"
)

// Variant identifies a WiFi transmitter behaviour in the sweeps.
type Variant struct {
	Name string
	// Mode is the WiFi PHY mode; SledZig is false for the normal-WiFi
	// baseline.
	Mode    wifi.Mode
	SledZig bool
	// Codec selects a non-default registry backend for the protected
	// variant ("" keeps the plain SledZig encoder). Only read when SledZig
	// is true.
	Codec string
}

// PaperVariants returns the four curves the paper sweeps in Figs. 14-16:
// normal WiFi and SledZig under the three QAM modulations.
func PaperVariants() []Variant {
	return []Variant{
		{Name: "Normal", Mode: wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}, SledZig: false},
		{Name: "QAM-16", Mode: wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, SledZig: true},
		{Name: "QAM-64", Mode: wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}, SledZig: true},
		{Name: "QAM-256", Mode: wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}, SledZig: true},
	}
}

// bandShareDB measures how much of a waveform's total power falls inside
// the 2 MHz window of ch, in dB (negative).
func bandShareDB(wave []complex128, ch core.ZigBeeChannel) (float64, error) {
	lo, hi := ch.BandHz()
	band, err := dsp.BandPower(wave, wifi.SampleRate, lo, hi)
	if err != nil {
		return 0, err
	}
	total := dsp.Power(wave)
	if total <= 0 {
		return 0, fmt.Errorf("exp: waveform has no power")
	}
	return dsp.DB(band / total), nil
}

// profilePayload is the size in octets of the frame DeriveProfile
// measures.
const profilePayload = 600

// profileScratch is one DeriveProfile call's working set, pooled so a
// sweep reuses the random source, payload, encode result and waveform of
// an earlier call instead of reallocating them.
type profileScratch struct {
	rng     *rand.Rand
	payload [profilePayload]byte
	res     core.EncodeResult
	wave    []complex128
}

var profileScratchPool = sync.Pool{New: func() any {
	return &profileScratch{rng: rand.New(rand.NewSource(1))}
}}

// payloadWave renders the DATA-field waveform of a variant for profile
// measurement, drawing its payload from s.rng. The waveform is s.wave or
// a view of the codec's frame.
func (s *profileScratch) payloadWave(conv wifi.Convention, v Variant, ch core.ZigBeeChannel) ([]complex128, error) {
	payload := s.payload[:]
	for i := range payload {
		payload[i] = byte(s.rng.Intn(256))
	}
	if !v.SledZig {
		frame, err := wifi.Transmitter{Mode: v.Mode, Convention: conv}.Frame(payload)
		if err != nil {
			return nil, err
		}
		s.wave, err = frame.AppendDataWaveform(s.wave[:0])
		return s.wave, err
	}
	if v.Codec != "" && v.Codec != "sledzig" {
		cdc, err := codec.New(v.Codec, codec.Params{Convention: conv, Mode: v.Mode, Channel: ch})
		if err != nil {
			return nil, err
		}
		if mp := cdc.MaxPayload(); len(payload) > mp {
			payload = payload[:mp]
		}
		enc, err := cdc.Encode(payload)
		if err != nil {
			return nil, err
		}
		// The DATA symbols are the final NumSymbols*SymbolLength samples
		// regardless of the backend's framing.
		return enc.Waveform[len(enc.Waveform)-enc.NumSymbols()*wifi.SymbolLength:], nil
	}
	plan, err := core.NewPlan(conv, v.Mode, ch)
	if err != nil {
		return nil, err
	}
	if err := (&core.Encoder{Plan: plan}).AssembleTo(payload, &s.res); err != nil {
		return nil, err
	}
	s.wave, err = s.res.Frame.AppendDataWaveform(s.wave[:0])
	return s.wave, err
}

// preambleShares holds preambleShareDB's result per (modulation, code
// rate, channel), its only inputs, as float64 bits filled lazily on first
// use; 0 marks an entry not yet measured (a measured share is negative).
var preambleShares [wifi.QAM256 + 1][wifi.Rate56 + 1][core.CH4 + 1]atomic.Uint64

// preambleShareDB measures the in-band share of the preamble + SIGNAL
// segment (which SledZig cannot suppress).
func preambleShareDB(mode wifi.Mode, ch core.ZigBeeChannel) (float64, error) {
	var slot *atomic.Uint64
	if mode.Modulation.Valid() && mode.CodeRate.Valid() && ch.Valid() {
		slot = &preambleShares[mode.Modulation][mode.CodeRate][ch]
		if v := slot.Load(); v != 0 {
			return math.Float64frombits(v), nil
		}
	}
	wave := wifi.Preamble()
	sigPts, err := wifi.EncodeSignalSymbol(mode, 100)
	if err != nil {
		return 0, err
	}
	sig, err := wifi.AssembleSymbol(sigPts, 0)
	if err != nil {
		return 0, err
	}
	wave = append(wave, sig...)
	share, err := bandShareDB(wave, ch)
	if err == nil && slot != nil {
		slot.Store(math.Float64bits(share))
	}
	return share, err
}

// DeriveProfile measures the in-band WiFi profile of a variant on a
// channel from actual PHY waveforms, anchored to the paper's received
// power calibration. The pilot component is computed analytically (one
// unit-power subcarrier out of the 52 active ones).
func DeriveProfile(conv wifi.Convention, v Variant, ch core.ZigBeeChannel, seed int64) (mac.WiFiProfile, error) {
	s := profileScratchPool.Get().(*profileScratch)
	defer profileScratchPool.Put(s)
	// Reseeding puts the recycled source in the state of a fresh
	// rand.NewSource(seed).
	s.rng.Seed(seed)
	wave, err := s.payloadWave(conv, v, ch)
	if err != nil {
		return mac.WiFiProfile{}, err
	}
	share, err := bandShareDB(wave, ch)
	if err != nil {
		return mac.WiFiProfile{}, err
	}
	preShare, err := preambleShareDB(v.Mode, ch)
	if err != nil {
		return mac.WiFiProfile{}, err
	}
	total := channel.WiFiTotalRxAt1mDBm
	inBand := total + share
	profile := mac.WiFiProfile{
		PreambleDBm: total + preShare,
		PilotDBm:    math.Inf(-1),
	}
	if v.SledZig && (v.Codec == "" || v.Codec == "sledzig") && len(ch.PilotSubcarriers()) > 0 {
		// Pilot tone: one of the 52 active subcarriers at unit power.
		pilot := total + dsp.DB(float64(len(ch.PilotSubcarriers()))/52.0)
		profile.PilotDBm = pilot
		rem := dsp.FromDB(inBand) - dsp.FromDB(pilot)
		if rem <= 0 {
			// Measurement jitter: the pilot accounts for (nearly) all the
			// in-band power; keep a small wideband residue.
			rem = dsp.FromDB(inBand) * 0.05
		}
		profile.DataDBm = dsp.DB(rem)
	} else {
		profile.DataDBm = inBand
	}
	return profile, nil
}

// InBandRSSIDBm returns the RSSI a TelosB at distance d (meters) collects
// from the profile's payload, including the noise floor (what Figs. 11-12
// plot).
func InBandRSSIDBm(p mac.WiFiProfile, d float64, txGainDelta int) float64 {
	pl := channel.PathLossDB(d, 1) - float64(txGainDelta)
	return dsp.AddPowersDB(p.TotalPayloadDBm()-pl, channel.NoiseFloorDBm)
}
