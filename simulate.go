package sledzig

import (
	"fmt"

	"sledzig/internal/channel"
	"sledzig/internal/codec"
	"sledzig/internal/core"
	"sledzig/internal/dsp"
	"sledzig/internal/exp"
	"sledzig/internal/mac"
	"sledzig/internal/wifi"
)

// CoexistenceConfig describes one WiFi/ZigBee coexistence scenario in the
// paper's office geometry (Fig. 10): a WiFi link and a ZigBee link at
// configurable distances, with the WiFi transmitter either running
// standard frames or SledZig-encoded ones.
type CoexistenceConfig struct {
	// WiFi transmission parameters.
	Modulation Modulation
	CodeRate   CodeRate
	Channel    Channel // protected channel; also the ZigBee link's channel
	UseSledZig bool
	Convention Convention
	// Codec selects the coexistence mechanism for the protected variant
	// (one of Codecs(); empty = CodecSledZig). Only read when UseSledZig
	// is true.
	Codec string

	// Geometry in meters: WiFi Tx -> ZigBee Rx, ZigBee Tx -> ZigBee Rx,
	// WiFi Tx -> WiFi Rx.
	DWZ, DZ, DW float64

	// WiFi traffic: airtime fraction (1 = saturated) and burst length in
	// seconds (0 = standard 1500-byte PPDUs).
	DutyRatio    float64
	BurstAirtime float64

	// Duration of the simulation in (virtual) seconds; Seed drives all
	// randomness.
	Duration float64
	Seed     int64

	// EnergyCCA selects energy-detect clear-channel assessment on the
	// ZigBee transmitter (the paper's carrier-sense analysis); false
	// models a CC2420 that ignores non-802.15.4 energy.
	EnergyCCA bool

	// ZigBeeNodes is the number of contending ZigBee transmitters
	// (default 1, the paper's single-link setup).
	ZigBeeNodes int
	// UseAcks enables 802.15.4 immediate ACKs with retransmissions.
	UseAcks bool
	// ZigBeeReportInterval switches the ZigBee side from saturated
	// traffic (0) to one frame per interval (seconds), the duty cycle of
	// real sensor deployments.
	ZigBeeReportInterval float64
}

// CoexistenceResult reports the simulated network performance.
type CoexistenceResult struct {
	ZigBeeThroughputBps float64
	ZigBeeFramesSent    int
	ZigBeeDelivered     int
	ZigBeeCorrupted     int
	ZigBeeCCADrops      int
	ZigBeeCollisions    int
	ZigBeeRetries       int
	WiFiFramesSent      int
	WiFiAirtimeFraction float64
	WiFiFramesFailed    int
	// WiFiGoodputFraction is 1 minus the SledZig extra-bit overhead (the
	// paper's Table IV loss) when SledZig is active.
	WiFiGoodputFraction float64
	// InBandRSSIDBm is the WiFi power a TelosB measures in the ZigBee
	// channel at 1 m (Fig. 12's quantity).
	InBandRSSIDBm float64
}

// SimulateCoexistence runs the discrete-event coexistence simulation with
// a WiFi in-band profile derived from real PHY waveforms.
func SimulateCoexistence(cfg CoexistenceConfig) (*CoexistenceResult, error) {
	if !cfg.Channel.Valid() {
		return nil, fmt.Errorf("%w: coexistence config must name a channel", ErrInvalidChannel)
	}
	mcfg := Config{Modulation: cfg.Modulation, CodeRate: cfg.CodeRate, Channel: cfg.Channel,
		Convention: cfg.Convention, Codec: cfg.Codec}.WithDefaults()
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	mode := mcfg.mode()
	variant := exp.Variant{Name: "custom", Mode: mode, SledZig: cfg.UseSledZig, Codec: mcfg.Codec}
	profile, err := exp.DeriveProfile(cfg.Convention, variant, cfg.Channel, cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	ccaMode := mac.CCACarrierOnly
	if cfg.EnergyCCA {
		ccaMode = mac.CCAEnergy
	}
	res, err := mac.Run(mac.Config{
		Seed:             cfg.Seed,
		Duration:         cfg.Duration,
		DWZ:              cfg.DWZ,
		DZ:               cfg.DZ,
		DW:               cfg.DW,
		Profile:          profile,
		WiFiMode:         mode,
		DutyRatio:        cfg.DutyRatio,
		WiFiFrameAirtime: cfg.BurstAirtime,
		CCAMode:          ccaMode,
		ZigBeeNodes:      cfg.ZigBeeNodes,
		UseAcks:          cfg.UseAcks,
		ZigBeeInterval:   cfg.ZigBeeReportInterval,
	})
	if err != nil {
		return nil, err
	}
	goodput := 1.0
	if cfg.UseSledZig {
		if mcfg.Codec != CodecSledZig {
			cdc, err := mcfg.newCodec()
			if err != nil {
				return nil, err
			}
			goodput = 1 - cdc.OverheadFraction()
		} else {
			// Plan.ThroughputLossFraction without building a plan: one
			// extra bit per constraint of a symbol, over N_DBPS.
			cs, err := core.SymbolConstraints(cfg.Convention, mode, cfg.Channel.DataSubcarriers())
			if err != nil {
				return nil, err
			}
			goodput = 1 - float64(len(cs))/float64(mode.DataBitsPerSymbol())
		}
	}
	return &CoexistenceResult{
		ZigBeeThroughputBps: res.ZigBeeThroughputBps,
		ZigBeeFramesSent:    res.ZigBeeSent,
		ZigBeeDelivered:     res.ZigBeeDelivered,
		ZigBeeCorrupted:     res.ZigBeeCorrupted,
		ZigBeeCCADrops:      res.ZigBeeCCADrops,
		ZigBeeCollisions:    res.ZigBeeCollisions,
		ZigBeeRetries:       res.ZigBeeRetries,
		WiFiFramesSent:      res.WiFiFramesSent,
		WiFiAirtimeFraction: res.WiFiAirtime / res.SimulatedDuration,
		WiFiFramesFailed:    res.WiFiFramesFailed,
		WiFiGoodputFraction: goodput,
		InBandRSSIDBm:       exp.InBandRSSIDBm(profile, 1, 0),
	}, nil
}

// MeasureBandReduction encodes a payload both normally and with SledZig
// and measures the actual band-power drop inside the protected channel
// from the generated waveforms (the quantity behind Figs. 5b, 11 and 12).
func MeasureBandReduction(cfg Config, payload []byte) (float64, error) {
	if !cfg.Channel.Valid() {
		return 0, fmt.Errorf("%w: config must name a protected channel", ErrInvalidChannel)
	}
	cfg = cfg.WithDefaults()
	if cfg.Codec != CodecSledZig {
		// Generic backends measure through the codec layer: protected DATA
		// symbols against a standard frame of the same mode.
		cdc, err := cfg.newCodec()
		if err != nil {
			return 0, err
		}
		return codec.MeasureBandDrop(cdc, cfg.codecParams(), payload)
	}
	mode := cfg.mode()
	normal, err := wifi.Transmitter{Mode: mode, Convention: cfg.Convention, Seed: cfg.ScramblerSeed}.Frame(payload)
	if err != nil {
		return 0, err
	}
	normalWave, err := normal.DataWaveform()
	if err != nil {
		return 0, err
	}
	enc, err := NewEncoder(cfg)
	if err != nil {
		return 0, err
	}
	frame, err := enc.Encode(payload)
	if err != nil {
		return 0, err
	}
	wave, err := frame.Waveform()
	if err != nil {
		return 0, err
	}
	// The DATA symbols are the final NumSymbols*SymbolLength samples.
	sledWave := wave[len(wave)-frame.NumSymbols()*wifi.SymbolLength:]
	lo, hi := cfg.Channel.BandHz()
	pn, err := dsp.BandPower(normalWave, wifi.SampleRate, lo, hi)
	if err != nil {
		return 0, err
	}
	ps, err := dsp.BandPower(sledWave, wifi.SampleRate, lo, hi)
	if err != nil {
		return 0, err
	}
	return dsp.DB(pn) - dsp.DB(ps), nil
}

// NoiseFloorDBm is the paper's measured background noise in 2 MHz.
const NoiseFloorDBm = channel.NoiseFloorDBm
