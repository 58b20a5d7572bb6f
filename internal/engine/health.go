package engine

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"sledzig/internal/obs"
)

// HealthState is the engine's coarse operating condition, the signal a
// gateway tier polls to steer load between backends.
type HealthState string

const (
	// Healthy: accepting work, breaker closed, no recent sheds, no
	// abandoned workers.
	Healthy HealthState = "healthy"
	// Degraded: still accepting, but the breaker is open/half-open, frames
	// were shed within the last shedDegradeWindow, or timeout-abandoned
	// workers are outstanding. Callers should prefer another backend.
	Degraded HealthState = "degraded"
	// Draining: Drain is in progress; every submission fails ErrDraining.
	Draining HealthState = "draining"
	// Closed: the engine was closed or fully drained.
	Closed HealthState = "closed"
)

// healthRank orders states worst-last for aggregation and exports the
// engine.health.state gauge encoding (healthy=0 … closed=3).
func healthRank(s HealthState) int {
	switch s {
	case Degraded:
		return 1
	case Draining:
		return 2
	case Closed:
		return 3
	default:
		return 0
	}
}

// shedDegradeWindow is how long after the most recent shed the engine keeps
// reporting Degraded. Sheds are bursty; a 5s memory gives pollers on a
// 1–2s cadence a reliable view without pinning Degraded forever.
const shedDegradeWindow = 5 * time.Second

// HealthSnapshot is one engine's health report, the JSON element served at
// /debug/health.
type HealthSnapshot struct {
	ID        uint64      `json:"id"`
	Codec     string      `json:"codec"`
	State     HealthState `json:"state"`
	Breaker   string      `json:"breaker"`
	Workers   int         `json:"workers"`
	Queue     int         `json:"queue_depth"`
	QueueCap  int         `json:"queue_cap"`
	Inflight  int         `json:"inflight"`
	Abandoned int         `json:"abandoned_workers"`
	Shed      ShedCounts  `json:"shed"`
	// DrainFlushed/DrainShed report the last Drain's disposition (zero
	// until a drain runs).
	DrainFlushed uint64 `json:"drain_flushed"`
	DrainShed    uint64 `json:"drain_shed"`
}

// Report computes the engine's current health snapshot.
func (e *Engine) Report() HealthSnapshot {
	s := HealthSnapshot{
		ID:           e.id,
		Codec:        e.cfg.Codec,
		Breaker:      breakerStateName(e.breaker.State()),
		Workers:      e.cfg.Workers,
		Queue:        len(e.jobs),
		QueueCap:     cap(e.jobs),
		Inflight:     int(e.inflight.Load()),
		Abandoned:    int(e.abandoned.Load()),
		Shed:         e.sheds.counts(),
		DrainFlushed: e.drainFlushed.Load(),
		DrainShed:    e.drainShedN.Load(),
	}
	s.State = e.healthState()
	return s
}

// Health returns just the state; Report carries the full detail.
func (e *Engine) Health() HealthState { return e.healthState() }

func (e *Engine) healthState() HealthState {
	switch e.state.Load() {
	case admitClosed:
		return Closed
	case admitDraining:
		return Draining
	}
	if e.breaker.State() != breakerClosed {
		return Degraded
	}
	if e.abandoned.Load() > 0 {
		return Degraded
	}
	if last := e.lastShedNS.Load(); last != 0 &&
		e.now().UnixNano()-last < int64(shedDegradeWindow) {
		return Degraded
	}
	return Healthy
}

// Process-wide registry of live engines, the backing store for
// /debug/health and the engine.health.state gauge. New registers, Close
// and Drain unregister.
var (
	liveMu      sync.Mutex
	liveEngines = map[uint64]*Engine{}
	liveNextID  uint64
)

func registerEngine(e *Engine) {
	liveMu.Lock()
	liveNextID++
	e.id = liveNextID
	liveEngines[e.id] = e
	liveMu.Unlock()
	publishHealthGauge()
}

func unregisterEngine(e *Engine) {
	liveMu.Lock()
	delete(liveEngines, e.id)
	liveMu.Unlock()
	publishHealthGauge()
}

func snapshotEngines() []*Engine {
	liveMu.Lock()
	defer liveMu.Unlock()
	out := make([]*Engine, 0, len(liveEngines))
	for _, e := range liveEngines {
		out = append(out, e)
	}
	return out
}

// publishHealthGauge re-exports the worst live engine's health rank as the
// engine.health.state gauge (0 healthy, 1 degraded, 2 draining, 3 closed;
// 0 with no live engines). Called on every transition that can change the
// aggregate: register/unregister, sheds, abandonment changes, drain
// progress, breaker trips.
func publishHealthGauge() {
	worst := 0
	for _, e := range snapshotEngines() {
		if r := healthRank(e.healthState()); r > worst {
			worst = r
		}
	}
	metrics().healthState.Set(float64(worst))
}

// healthHandler serves /debug/health: a JSON document with the aggregate
// state and one snapshot per live engine, ordered by engine ID.
func healthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		engines := snapshotEngines()
		sort.Slice(engines, func(i, j int) bool { return engines[i].id < engines[j].id })
		doc := struct {
			State   HealthState      `json:"state"`
			Engines []HealthSnapshot `json:"engines"`
		}{State: Healthy, Engines: make([]HealthSnapshot, 0, len(engines))}
		for _, e := range engines {
			s := e.Report()
			if healthRank(s.State) > healthRank(doc.State) {
				doc.State = s.State
			}
			doc.Engines = append(doc.Engines, s)
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
}

func init() {
	obs.RegisterDebugHandler("/debug/health", healthHandler())
}
