// Package sledzig is a software reproduction of "SledZig: Boosting
// Cross-Technology Coexistence for Low-Power Wireless Devices"
// (ICDCS 2022): a WiFi payload-encoding mechanism that pins the OFDM
// subcarriers overlapping a chosen ZigBee channel to the lowest-power QAM
// constellation points, cutting the WiFi energy inside that 2 MHz band by
// up to ~19 dB while the transmit chain stays 100% standard.
//
// The package is a facade over the internal substrates:
//
//   - internal/wifi — a bit-exact 802.11 OFDM baseband PHY,
//   - internal/zigbee — the 802.15.4 DSSS/O-QPSK PHY,
//   - internal/core — the SledZig encoder/decoder itself,
//   - internal/codec — the codec registry (SledZig and the related-work
//     coexistence mechanisms behind one contract — see docs/codecs.md),
//   - internal/channel — the paper-calibrated radio environment,
//   - internal/mac — the CSMA/CA coexistence simulator.
//
// Quickstart:
//
//	enc, _ := sledzig.NewEncoder(sledzig.Config{
//	    Modulation: sledzig.QAM64,
//	    CodeRate:   sledzig.Rate34,
//	    Channel:    sledzig.CH2,
//	})
//	frame, _ := enc.Encode([]byte("hello zigbee neighbours"))
//	wave, _ := frame.Waveform()            // 20 MS/s baseband samples
//	dec, _ := sledzig.NewDecoder(sledzig.Config{})
//	res, _ := dec.Decode(wave)             // channel auto-detected
//	_ = res.Payload
//
// Config.Codec swaps the coexistence mechanism while keeping the same
// Encoder/Decoder/Engine surface: "sledzig" (default), "ook-ctc" (the
// SLEM-style energy-modulation side channel) or "ofdmfi" (an
// OfdmFi-style message-embedding waveform). See Codecs and docs/codecs.md.
package sledzig

import (
	"fmt"
	"slices"
	"sync"

	"sledzig/internal/codec"
	"sledzig/internal/core"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

// Re-exported enumerations so callers never import internal packages.
type (
	// Modulation is the WiFi subcarrier modulation.
	Modulation = wifi.Modulation
	// CodeRate is the convolutional coding rate.
	CodeRate = wifi.CodeRate
	// Convention selects the bit-pipeline convention (IEEE-exact or the
	// paper's USRP implementation, reverse-engineered from its Table II).
	Convention = wifi.Convention
	// Channel is one of the four ZigBee channels overlapping the WiFi
	// channel.
	Channel = core.ZigBeeChannel
)

// Supported modulations.
const (
	BPSK   = wifi.BPSK
	QPSK   = wifi.QPSK
	QAM16  = wifi.QAM16
	QAM64  = wifi.QAM64
	QAM256 = wifi.QAM256
)

// Supported coding rates.
const (
	Rate12 = wifi.Rate12
	Rate23 = wifi.Rate23
	Rate34 = wifi.Rate34
	Rate56 = wifi.Rate56
)

// Pipeline conventions.
const (
	ConventionIEEE  = wifi.ConventionIEEE
	ConventionPaper = wifi.ConventionPaper
)

// Overlapped ZigBee channels (ascending frequency; on WiFi channel 13
// these are ZigBee channels 23-26).
const (
	CH1 = core.CH1
	CH2 = core.CH2
	CH3 = core.CH3
	CH4 = core.CH4
)

// Registered codec backends for Config.Codec (see docs/codecs.md).
const (
	// CodecSledZig is the paper's mechanism: every DATA symbol pinned,
	// payload carried as ordinary WiFi data.
	CodecSledZig = "sledzig"
	// CodecOOK is the SLEM-style energy-modulation side channel: the
	// payload rides as WiFi data while in-band energy toggles spell an
	// OOK digest readable by RSSI sampling.
	CodecOOK = "ook-ctc"
	// CodecOfdmFi is an OfdmFi-style message-embedding waveform: the
	// subcarrier power pattern is the payload; no WiFi data is carried.
	CodecOfdmFi = "ofdmfi"
)

// Codecs lists the registered codec backends, sorted by name.
func Codecs() []string { return codec.Names() }

// Config selects the transmission parameters. The zero value of Channel is
// invalid for encoding; decoding detects the channel from the air where
// the codec allows it.
//
// Zero values of the remaining fields select documented defaults (see
// WithDefaults): the "sledzig" codec, QAM-16, rate 1/2, ConventionIEEE,
// and the 802.11 Annex G scrambler seed.
type Config struct {
	Modulation Modulation
	CodeRate   CodeRate
	Channel    Channel
	// Convention selects the bit pipeline. The zero value is
	// ConventionIEEE (the 802.11-standard interleaver and labeling); set
	// ConventionPaper to match the authors' USRP implementation, whose
	// Table II bit positions this repository reproduces exactly.
	Convention Convention
	// ScramblerSeed (1..127); 0 selects the 802.11 Annex G example seed.
	ScramblerSeed uint8
	// Resilient enables the receiver's graceful-degradation ladder when
	// decoding: a capture that fails at sample 0 is rescanned for the
	// preamble and retried from the detected PPDU start (recovering
	// captures with leading garbage), at the cost of one extra decode
	// attempt on genuinely undecodable input. See docs/robustness.md.
	Resilient bool
	// Codec names the coexistence mechanism: one of Codecs(). Empty
	// selects CodecSledZig. Non-default codecs need a valid Channel on
	// both sides (their receivers decode a fixed configured channel).
	Codec string
}

// WithDefaults returns a copy of the config with every zero field resolved
// to its documented default: the "sledzig" codec, QAM-16 modulation, rate
// 1/2 coding, and the 802.11 Annex G scrambler seed (0x5D). Channel has no
// default — the zero value stays zero and remains invalid for encoding —
// and Convention's zero value already is ConventionIEEE.
func (c Config) WithDefaults() Config {
	if c.Modulation == 0 {
		c.Modulation = QAM16
	}
	if c.CodeRate == 0 {
		c.CodeRate = Rate12
	}
	if c.ScramblerSeed == 0 {
		c.ScramblerSeed = wifi.DefaultScramblerSeed
	}
	if c.Codec == "" {
		c.Codec = CodecSledZig
	}
	return c
}

// Validate reports whether every set field is a supported value. Zero
// fields are accepted (they have defaults — see WithDefaults) except that
// encoding additionally requires a valid Channel, which NewEncoder checks
// and reports as ErrInvalidChannel. Any other out-of-range field wraps
// ErrInvalidConfig.
func (c Config) Validate() error {
	if c.Modulation != 0 && !c.Modulation.Valid() {
		return fmt.Errorf("%w: invalid modulation %d", ErrInvalidConfig, int(c.Modulation))
	}
	if c.CodeRate != 0 && !c.CodeRate.Valid() {
		return fmt.Errorf("%w: invalid code rate %d", ErrInvalidConfig, int(c.CodeRate))
	}
	if c.Channel != 0 && !c.Channel.Valid() {
		return fmt.Errorf("%w: %d is not CH1..CH4", ErrInvalidChannel, int(c.Channel))
	}
	if c.Convention != ConventionIEEE && c.Convention != ConventionPaper {
		return fmt.Errorf("%w: invalid convention %d", ErrInvalidConfig, int(c.Convention))
	}
	if c.ScramblerSeed > 127 {
		return fmt.Errorf("%w: scrambler seed %d outside [0, 127]", ErrInvalidConfig, c.ScramblerSeed)
	}
	if c.Codec != "" && !codec.Known(c.Codec) {
		return fmt.Errorf("%w: unknown codec %q (registered: %v)", ErrInvalidConfig, c.Codec, codec.Names())
	}
	return nil
}

// mode resolves the PHY mode with the zero-value defaults applied.
func (c Config) mode() wifi.Mode {
	c = c.WithDefaults()
	return wifi.Mode{Modulation: c.Modulation, CodeRate: c.CodeRate}
}

// codecParams maps the public config onto the codec-layer parameters.
func (c Config) codecParams() codec.Params {
	c = c.WithDefaults()
	return codec.Params{
		Convention: c.Convention,
		Mode:       wifi.Mode{Modulation: c.Modulation, CodeRate: c.CodeRate},
		Channel:    c.Channel,
		Seed:       c.ScramblerSeed,
		Resilient:  c.Resilient,
	}
}

// newCodec builds the configured non-default codec backend, mapping
// construction failures onto the public taxonomy.
func (c Config) newCodec() (codec.Codec, error) {
	if !c.Channel.Valid() {
		return nil, fmt.Errorf("%w: codec %q works on a fixed channel; config must name CH1..CH4", ErrInvalidChannel, c.Codec)
	}
	cdc, err := codec.New(c.Codec, c.codecParams())
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	return cdc, nil
}

// Encoder produces coexistence-encoded frames for the configured codec
// backend (SledZig by default). It is safe for concurrent use, but calls
// serialize on one backend instance: parallel encoding is the Engine's
// job.
type Encoder struct {
	cfg Config
	// plan is SledZig's extra-bit plan, the one its backend resolves
	// through the process-wide cache; nil for other codecs.
	plan *core.Plan

	// cdc holds recycled state, so calls serialize on mu.
	cdc codec.Codec
	mu  sync.Mutex
}

// NewEncoder resolves the config defaults, validates it, and prepares the
// selected codec backend. For the default SledZig codec the extra-bit plan
// resolves through the process-wide plan cache, so repeated constructions
// with the same parameters (and Engines sharing them) reuse one
// precomputed plan.
func NewEncoder(cfg Config) (*Encoder, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cdc, err := cfg.newCodec()
	if err != nil {
		return nil, err
	}
	e := &Encoder{cfg: cfg, cdc: cdc}
	if cfg.Codec == CodecSledZig {
		if e.plan, err = core.CachedPlan(cfg.Convention, cfg.mode(), cfg.Channel); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
		}
	}
	return e, nil
}

// Frame is an encoded PPDU from one of the codec backends.
type Frame codec.Frame

// Encode builds the frame carrying payload.
func (e *Encoder) Encode(payload []byte) (*Frame, error) {
	// Root frame trace (nil, and free, with no tracer installed): the
	// backend lands its stage spans here.
	tf := trace.Start("encode")
	enc, err := e.assemble(payload, tf)
	tf.Finish(err)
	if err != nil {
		return nil, wrapEncodeErr(err)
	}
	return (*Frame)(&enc.Frame), nil
}

// assemble runs the backend's Assemble under the mutex, deferring the
// unlock so a panicking backend never leaves the Encoder locked. The frame
// renders later, outside the mutex.
func (e *Encoder) assemble(payload []byte, tf *trace.Frame) (*codec.Encoded, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cdc.SetTrace(tf)
	defer e.cdc.SetTrace(nil)
	return e.cdc.Assemble(payload)
}

// Codec names the backend that produced the frame.
func (f *Frame) Codec() string { return (*codec.Frame)(f).Codec() }

// Waveform renders the complete PPDU (preamble + header + DATA) at
// 20 MS/s complex baseband. The returned slice is the caller's.
func (f *Frame) Waveform() ([]complex128, error) { return f.AppendWaveform(nil) }

// AppendWaveform renders the PPDU appended to dst and returns the extended
// slice — the allocation-lean variant for callers that render many frames
// into recycled buffers. The samples are identical to Waveform's.
func (f *Frame) AppendWaveform(dst []complex128) ([]complex128, error) {
	// Synthesis traces as its own root frame, growing dst once, to
	// exactly the PPDU.
	tf := trace.Start("waveform")
	out, err := (*codec.Frame)(f).AppendWaveform(dst, tf)
	tf.Finish(err)
	return out, err
}

// TransmitBits returns the unscrambled DATA-field bits — what a completely
// standard 802.11 transmitter would be fed to emit this exact frame — as a
// fresh slice. Each byte holds one bit (0/1). Only frames of the default
// SledZig codec carry them; every other backend returns nil, including
// CodecOOK, whose frames are standard PPDUs too.
func (f *Frame) TransmitBits() []byte { return (*codec.Frame)(f).TransmitBits() }

// NumSymbols returns the frame length in DATA OFDM symbols.
func (f *Frame) NumSymbols() int { return (*codec.Frame)(f).NumSymbols() }

// ExtraBits returns how many extra bits the frame spent satisfying the
// constellation constraints (0 for codec backends that do not use the
// extra-bit mechanism frame-wide).
func (f *Frame) ExtraBits() int { return (*codec.Frame)(f).ExtraBits() }

// ProtectedSymbols reports, per DATA OFDM symbol, whether the codec held
// the protected band low during that symbol. Nil means every symbol is
// protected — SledZig's whole-frame contract. Energy-modulation codecs
// (CodecOOK) protect only the low half of their symbols.
func (f *Frame) ProtectedSymbols() []bool { return slices.Clone((*codec.Frame)(f).ProtectedMask()) }

// AirtimeSeconds returns the PPDU duration on the air.
func (f *Frame) AirtimeSeconds() float64 { return (*codec.Frame)(f).AirtimeSeconds() }

// OverheadFraction is the fraction of the frame's standard WiFi data
// throughput the mechanism costs: the per-symbol extra-bit loss for
// SledZig (paper Table IV), 1 for codecs that carry no WiFi data.
func (e *Encoder) OverheadFraction() float64 { return e.cdc.OverheadFraction() }

// ExtraBitsPerSymbol is the paper's Table III count for this plan (0 for
// codec backends that do not pin every symbol).
func (e *Encoder) ExtraBitsPerSymbol() int {
	if e.plan == nil {
		return 0
	}
	return e.plan.ExtraBitsPerSymbol()
}

// MaxPayload returns the largest payload that fits in n OFDM symbols,
// never less than 0 nor more than one frame carries. Codec backends with
// their own framing ignore n and report their single-frame bound.
func (e *Encoder) MaxPayload(nSymbols int) int {
	bound := e.cdc.MaxPayload()
	if e.plan == nil {
		return bound
	}
	return min(max(e.plan.MaxPayload(nSymbols), 0), bound)
}

// PowerReductionDB returns the theoretical per-subcarrier power drop of
// pinning a modulation to its lowest ring (7.0 / 13.2 / 19.3 dB for
// QAM-16/64/256 — paper section III-B).
func PowerReductionDB(m Modulation) float64 {
	return wifi.PowerReductionDB(m)
}

// ChannelFromNumbers maps absolute channel numbers (ZigBee 11..26, WiFi
// 1..13) to the relative overlapped channel.
func ChannelFromNumbers(zigbeeChannel, wifiChannel int) (Channel, error) {
	return core.FromZigBeeChannelNumber(zigbeeChannel, wifiChannel)
}

// SenseProtectedChannel inspects a quiet-period baseband capture (20 MS/s,
// centered on the WiFi channel) and reports which overlapped ZigBee
// channel carries a low-power neighbour worth protecting — the adaptive
// variant the paper sketches in its related-work discussion. ok is false
// when no channel stands out of the noise.
func SenseProtectedChannel(capture []complex128) (Channel, bool, error) {
	return core.ChannelSensor{}.Sense(capture)
}
