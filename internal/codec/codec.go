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

// Encoded is one encoded frame: the complete baseband PPDU at 20 MS/s
// plus the accounting the experiment harness and facade report.
type Encoded struct {
	// Waveform is the full PPDU (preamble + header + DATA), WiFi-centered
	// complex baseband. The caller owns it.
	Waveform []complex128
	// NumSymbols is the DATA-field length in OFDM symbols.
	NumSymbols int
	// ProtectedMask marks, per DATA OFDM symbol, whether the codec held
	// the protected band low during that symbol. Nil means every symbol
	// is protected (the SledZig case).
	ProtectedMask []bool
	// AirtimeSeconds is the PPDU duration on the air.
	AirtimeSeconds float64
}

// Decoded is one recovered frame.
type Decoded struct {
	// Payload is the original payload handed to Encode.
	Payload []byte
	// Channel is the protected channel the frame was decoded against
	// (detected from the air where the mechanism allows, configured
	// otherwise).
	Channel core.ZigBeeChannel
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
	// allocations per Encode call; the conformance suite enforces it
	// with testing.AllocsPerRun. Zero leaves the hot path unchecked.
	MaxEncodeAllocs int
}

// Codec is the cross-technology-coexistence codec contract.
//
// A Codec instance is NOT safe for concurrent use — it may hold recycled
// demodulation state. The engine gives each worker its own instance; other
// callers construct one per goroutine through New.
type Codec interface {
	// Name returns the registry name ("sledzig", "ook-ctc", ...).
	Name() string
	// Encode embeds payload into a fresh baseband PPDU honouring the
	// Contract on the configured protected channel.
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

// Traceable is implemented by codecs that can land per-stage spans on a
// frame trace; the engine threads each job's trace through it so every
// backend shows up in the flight recorder the same way.
type Traceable interface {
	SetTrace(*trace.Frame)
}
