package core

import "sledzig/internal/obs"

// Metric handles for the SledZig encoder/decoder, resolved lazily
// against the process-wide obs registry (named stages with nil handles,
// and therefore no-ops, when observability is off).
type coreMetrics struct {
	// Encoder stages.
	encLayout   *obs.Stage // extra-bit position planning
	encScramble *obs.Stage
	encSolve    *obs.Stage // extra-bit insertion (GF(2) cluster solve)
	encVerify   *obs.Stage
	encFrames   *obs.Counter
	encPayload  *obs.Counter // payload octets encoded

	// Decoder stages.
	decDetect   *obs.Stage // protected-channel detection
	decStrip    *obs.Stage // extra-bit strip + header parse
	decFrames   *obs.Counter
	decPayload  *obs.Counter
	failDetect  *obs.Counter // no protected channel found
	failLayout  *obs.Counter // layout/geometry mismatch
	failHeader  *obs.Counter // length header invalid
	failLength  *obs.Counter // stream too short for declared length
	failEncoder *obs.Counter // encoder-side failures (singular cluster, ...)

	// Plan cache effectiveness.
	planHit  *obs.Counter
	planMiss *obs.Counter

	bus *obs.Bus
}

var coreLazy obs.Lazy[*coreMetrics]

func metrics() *coreMetrics {
	return coreLazy.Get(func(r *obs.Registry) *coreMetrics {
		enc := r.Scope("core.encode")
		dec := r.Scope("core.decode")
		return &coreMetrics{
			encLayout:   enc.Stage("layout"),
			encScramble: enc.Stage("scramble"),
			encSolve:    enc.Stage("solve"),
			encVerify:   enc.Stage("verify"),
			encFrames:   enc.Counter("frames"),
			encPayload:  enc.Counter("payload_bytes"),

			decDetect:   dec.Stage("detect"),
			decStrip:    dec.Stage("strip"),
			decFrames:   dec.Counter("frames"),
			decPayload:  dec.Counter("payload_bytes"),
			failDetect:  dec.Counter("fail.detect"),
			failLayout:  dec.Counter("fail.layout"),
			failHeader:  dec.Counter("fail.header"),
			failLength:  dec.Counter("fail.length"),
			failEncoder: enc.Counter("fail"),

			planHit:  r.Counter("core.plan.cache_hits"),
			planMiss: r.Counter("core.plan.cache_misses"),

			bus: r.Bus(),
		}
	})
}

// fail counts one failure and mirrors it on the event bus; kind is the
// full taxonomy entry ("decode_fail.detect", "encode_fail.solve", ...).
func (m *coreMetrics) fail(c *obs.Counter, source, kind string, err error) {
	c.Inc()
	if m.bus.Active() {
		detail := ""
		if err != nil {
			detail = err.Error()
		}
		m.bus.Publish(obs.Event{Source: source, Kind: kind, Node: -1, Detail: detail})
	}
}
