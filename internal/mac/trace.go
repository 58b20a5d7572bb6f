package mac

import "sledzig/internal/obs"

// Simulator event kinds: the Kind of every obs.Event the simulator emits
// (Source "mac", Node the ZigBee node or -1 for WiFi events, Time in
// simulated seconds).
const (
	TraceWiFiStart    = "wifi_start"
	TraceWiFiEnd      = "wifi_end"
	TraceCCABusy      = "cca_busy"
	TraceCCADrop      = "cca_drop"
	TraceZBStart      = "zb_start"
	TraceZBDelivered  = "zb_delivered"
	TraceZBCorrupted  = "zb_corrupted"
	TraceZBCollided   = "zb_collided"
	TraceZBRetry      = "zb_retry"
	TraceZBDropped    = "zb_dropped"
	TraceZBAckFailure = "zb_ack_failure"
)

// macMetrics pre-resolves the simulator's metric handles — the run
// stage, the last-run gauges and one counter per event kind — so neither
// Run nor the trace path builds metric names or takes registry locks.
type macMetrics struct {
	run            *obs.Stage
	lastThroughput *obs.Gauge
	lastAirtime    *obs.Gauge
	counters       map[string]*obs.Counter
	bus            *obs.Bus
}

var macLazy obs.Lazy[*macMetrics]

// macNil keeps the counter map nil while observability is off, so an
// event costs no hash of its kind.
var macNil = &macMetrics{}

func simMetrics() *macMetrics {
	return macLazy.Get(func(r *obs.Registry) *macMetrics {
		if r == nil {
			return macNil
		}
		kinds := []string{
			TraceWiFiStart, TraceWiFiEnd, TraceCCABusy, TraceCCADrop,
			TraceZBStart, TraceZBDelivered, TraceZBCorrupted, TraceZBCollided,
			TraceZBRetry, TraceZBDropped, TraceZBAckFailure,
		}
		sc := r.Scope("mac.sim")
		m := &macMetrics{
			run:            sc.Stage("run"),
			lastThroughput: sc.Gauge("last_zb_throughput_bps"),
			lastAirtime:    sc.Gauge("last_wifi_airtime_fraction"),
			counters:       make(map[string]*obs.Counter, len(kinds)),
			bus:            r.Bus(),
		}
		for _, k := range kinds {
			//sledvet:ignore metriclit event kinds are the closed lowercase set of Trace* constants above
			m.counters[k] = r.Counter("mac.events." + k)
		}
		return m
	})
}

// trace hands one event to the configured sink and, when observability
// is on, to the per-kind counter and the process-wide event bus.
func (s *Sim) trace(at float64, kind string, node int) {
	ev := obs.Event{Time: at, Source: "mac", Kind: kind, Node: node}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Emit(ev)
	}
	m := simMetrics()
	m.counters[kind].Inc()
	m.bus.Publish(ev)
}
