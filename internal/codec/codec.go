// Package codec defines the cross-technology-coexistence codec contract
// and its registry: a Codec embeds a payload into a WiFi-band baseband
// waveform while honouring a band-power promise on one protected ZigBee
// channel, and recovers the payload from a received waveform. SledZig is
// one codec among several — the paper's section VI positions it against
// SLEM/OfdmFi-style energy modulation, and the registry makes those
// mechanisms first-class alternatives judged by the same experiment
// harness (band power in the protected channel, PRR, WiFi throughput
// loss) and served by the same engine worker pool.
package codec

import (
	"errors"

	"sledzig/internal/core"
	"sledzig/internal/obs"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

// Typed sentinels of the codec layer. Every backend wraps its decode
// failures in ErrDecode (or one of the wifi/core sentinels the facade
// already maps), so registry dispatch keeps the errors.Is contract.
var (
	// ErrUnknownCodec marks a name with no registered backend.
	ErrUnknownCodec = errors.New("codec: unknown codec")
	// ErrDecode marks a waveform the backend demodulated but could not
	// frame back into a payload (sync, pattern or checksum failure).
	ErrDecode = errors.New("codec: frame undecodable")
)

// Params configures one codec instance. Every backend interprets the
// same fields so the facade and engine stay codec-agnostic; a backend
// that has no use for a field (e.g. the OfdmFi-style codec ignores the
// coding rate) documents that on its constructor.
type Params struct {
	Convention wifi.Convention
	Mode       wifi.Mode
	// Channel is the protected ZigBee channel. Required by every
	// backend: it is the band the Contract speaks about.
	Channel core.ZigBeeChannel
	// Seed is the 802.11 scrambler seed where the backend uses the
	// standard bit pipeline (0 selects the Annex G default).
	Seed uint8
	// Resilient enables the receiver's graceful-degradation ladder where
	// the backend decodes through the standard WiFi receiver.
	Resilient bool
}

// Encoded is one encoded frame plus the accounting the experiment harness
// and facade report. Assemble leaves Waveform nil, and AppendWaveform
// renders the PPDU on demand; Encode fills Waveform with one render.
type Encoded struct {
	// Waveform is the full PPDU (preamble + header + DATA), WiFi-centered
	// complex baseband at 20 MS/s: Encode's render, nil after Assemble.
	// The caller owns it.
	Waveform []complex128
	// NumSymbols is the DATA-field length in OFDM symbols.
	NumSymbols int
	// ProtectedMask marks, per DATA OFDM symbol, whether the codec held
	// the protected band low during that symbol. Nil means every symbol
	// is protected (the SledZig case).
	ProtectedMask []bool
	// AirtimeSeconds is the PPDU duration on the air.
	AirtimeSeconds float64
	// frame renders the PPDU from what Assemble made and what never
	// changes after the backend's construction, never the instance's
	// recycled state: it renders after its instance has moved on to other
	// frames, and from several goroutines at once.
	frame interface {
		samples() int // the PPDU's length
		appendTo(dst []complex128, tr *trace.Frame) ([]complex128, error)
	}
}

// AppendWaveform renders the PPDU appended to dst, growing dst at most
// once, to exactly the PPDU's length (so a render into nil returns
// len == cap), and lands the render's stage spans on tr (nil for none).
// On error dst may have been partially extended; discard it.
func (e *Encoded) AppendWaveform(dst []complex128, tr *trace.Frame) ([]complex128, error) {
	if e.frame == nil {
		return dst, errors.New("codec: frame was not assembled by a backend")
	}
	if n := e.frame.samples(); cap(dst)-len(dst) < n {
		dst = append(make([]complex128, 0, len(dst)+n), dst...)
	}
	return e.frame.appendTo(dst, tr)
}

// wifiFrame renders the sledzig and ook-ctc frames, standard PPDUs, on a
// value copy, so concurrent renders never race on the frame's Trace.
type wifiFrame wifi.Frame

func (f *wifiFrame) samples() int { return wifi.PreambleLength + (1+f.NumSymbols)*wifi.SymbolLength }

func (f *wifiFrame) appendTo(dst []complex128, tr *trace.Frame) ([]complex128, error) {
	wf := wifi.Frame(*f)
	wf.Trace = tr
	return wf.AppendWaveform(dst)
}

// encode is every backend's Encode: Assemble, then one render into
// Waveform with its spans on tr.
func encode(c Codec, payload []byte, tr *trace.Frame) (*Encoded, error) {
	enc, err := c.Assemble(payload)
	if err == nil {
		enc.Waveform, err = enc.AppendWaveform(nil, tr)
	}
	if err != nil {
		return nil, err
	}
	return enc, nil
}

// Decoded is one recovered frame. Every slice is freshly allocated per
// call: a backend's recycled demodulation buffers never leak into it, so
// callers may retain it across later decodes on the same instance. The
// sledzig backend fills every field; ook-ctc and ofdmfi fill Payload and
// Channel and leave the PHY-detail fields zero.
type Decoded struct {
	// Payload is the original payload handed to Encode.
	Payload []byte
	// Channel is the protected channel the frame was decoded against
	// (detected from the air where the mechanism allows, configured
	// otherwise).
	Channel core.ZigBeeChannel
	// Mode is the modulation and code rate signalled in the PLCP header.
	Mode wifi.Mode
	// ScramblerSeed is the seed the descrambler used.
	ScramblerSeed uint8
	// ExtraBits is how many extra bits the frame spent on the
	// constellation constraints.
	ExtraBits int
	// NumSymbols is the DATA-field length in OFDM symbols.
	NumSymbols int
	// SymbolEVM is the per-DATA-symbol RMS error-vector magnitude of the
	// equalized points against the nearest ideal points.
	SymbolEVM []float64
}

// Contract is the codec's band-power promise, the common currency the
// conformance suite enforces on every backend: over the DATA symbols the
// codec marks protected, the power inside the protected ZigBee channel is
// at least MinDropDB below a normal WiFi frame of the same mode.
type Contract struct {
	// MinDropDB is the guaranteed in-band power reduction (dB) on
	// protected symbols, relative to a normal frame.
	MinDropDB float64
	// WholeFrame states that every DATA symbol is protected
	// (ProtectedMask nil or all-true) — the strongest form of the
	// contract, which SledZig offers and the energy-modulation codecs
	// cannot.
	WholeFrame bool
	// MaxEncodeAllocs, when positive, bounds steady-state heap
	// allocations per Encode call (Assemble and one render); the
	// conformance suite enforces it with testing.AllocsPerRun. Zero
	// leaves the hot path unchecked.
	MaxEncodeAllocs int
}

// codecStages are the stages the non-SledZig backends add around the
// core and wifi stages they call into (codec.<backend>.embed/extract),
// resolved lazily against the process-wide obs registry.
type codecStages struct {
	ookEmbed, ookExtract       *obs.Stage
	ofdmfiEmbed, ofdmfiExtract *obs.Stage
}

var stagesLazy obs.Lazy[*codecStages]

func stages() *codecStages {
	return stagesLazy.Get(func(r *obs.Registry) *codecStages {
		ook, fi := r.Scope("codec.ook"), r.Scope("codec.ofdmfi")
		return &codecStages{
			ookEmbed: ook.Stage("embed"), ookExtract: ook.Stage("extract"),
			ofdmfiEmbed: fi.Stage("embed"), ofdmfiExtract: fi.Stage("extract"),
		}
	})
}

// Codec is the cross-technology-coexistence codec contract.
//
// A Codec instance is NOT safe for concurrent use — it may hold recycled
// demodulation state. The engine gives each worker its own instance; the
// facade serializes calls on one instance behind a mutex.
type Codec interface {
	// Name returns the registry name ("sledzig", "ook-ctc", ...).
	Name() string
	// SetTrace attaches the frame trace the next Assemble, Encode or
	// Decode lands its stage spans on; nil detaches it.
	SetTrace(*trace.Frame)
	// Assemble embeds payload into a fresh frame honouring the Contract
	// on the configured protected channel, without rendering it: the
	// result's Waveform is nil, and its AppendWaveform renders the PPDU
	// on demand.
	Assemble(payload []byte) (*Encoded, error)
	// Encode is Assemble plus one render of the PPDU into Waveform, for
	// callers that read the waveform right away.
	Encode(payload []byte) (*Encoded, error)
	// Decode recovers the payload from a received waveform (aligned to
	// the PPDU start, as produced by Encode).
	Decode(waveform []complex128) (*Decoded, error)
	// Contract reports the codec's band-power promise.
	Contract() Contract
	// MaxPayload is the largest payload (octets) one frame can carry.
	MaxPayload() int
	// OverheadFraction is the fraction of the frame's standard WiFi DATA
	// throughput the mechanism costs (1 = the frame carries no ordinary
	// WiFi data at all).
	OverheadFraction() float64
}
