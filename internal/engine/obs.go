package engine

import (
	"fmt"
	"sync"

	"sledzig/internal/obs"
)

// Metric handles for the engine, resolved lazily against the process-wide
// obs registry (nil handles, and therefore no-ops, when observability is
// off).
type engineMetrics struct {
	queueDepth *obs.Gauge // jobs enqueued but not yet picked up

	// Per-direction handles, picked by the job's direction.
	encode, decode sideMetrics

	panics   *obs.Counter // frames whose worker panicked (recovered)
	timeouts *obs.Counter // frames abandoned to FrameTimeout

	// Load-shed decisions by reason (see admit.go / drain.go), plus the
	// live count of abandoned frame goroutines.
	shedQueueWait    *obs.Counter
	shedInflight     *obs.Counter
	shedAbandoned    *obs.Counter
	shedCircuit      *obs.Counter
	shedDraining     *obs.Counter
	abandonedWorkers *obs.Gauge

	// Circuit-breaker transitions and current state (0 closed, 1 open,
	// 2 half-open).
	breakerOpened   *obs.Counter
	breakerReclosed *obs.Counter
	breakerProbes   *obs.Counter // open -> half-open transitions
	breakerState    *obs.Gauge

	// Worst live engine's health rank (0 healthy, 1 degraded, 2 draining,
	// 3 closed) and the number of Drain calls that took effect.
	healthState *obs.Gauge
	drains      *obs.Counter

	r      *obs.Registry
	stages sync.Map // "<worker index>/<kind>" -> *obs.Stage
}

// sideMetrics are one direction's handles.
type sideMetrics struct {
	batchLatency *obs.Histogram // EncodeBatch / DecodeBatch wall time, seconds
	batches      *obs.Counter
	frames       *obs.Counter
	failures     *obs.Counter
	// Per-frame end-to-end latency (queue wait + service), fed by traced
	// frames only so every p99 bucket carries an exemplar naming the frame
	// trace behind it. Aggregate per-worker stage histograms cover all
	// frames regardless of tracing.
	frameLatency *obs.Histogram
}

var engineLazy obs.Lazy[*engineMetrics]

var engineNil = &engineMetrics{}

func metrics() *engineMetrics {
	return engineLazy.Get(func(r *obs.Registry) *engineMetrics {
		if r == nil {
			return engineNil
		}
		return &engineMetrics{
			queueDepth: r.Gauge("engine.queue_depth"),
			encode: sideMetrics{
				batchLatency: r.Histogram("engine.batch.latency_seconds"),
				batches:      r.Counter("engine.batches"),
				frames:       r.Counter("engine.frames"),
				failures:     r.Counter("engine.failures"),
				frameLatency: r.Histogram("engine.frame.encode.latency_seconds"),
			},
			decode: sideMetrics{
				batchLatency: r.Histogram("engine.decode.batch.latency_seconds"),
				batches:      r.Counter("engine.decode.batches"),
				frames:       r.Counter("engine.decode.frames"),
				failures:     r.Counter("engine.decode.failures"),
				frameLatency: r.Histogram("engine.frame.decode.latency_seconds"),
			},

			panics:   r.Counter("engine.frame_panics"),
			timeouts: r.Counter("engine.frame_timeouts"),

			shedQueueWait:    r.Counter("engine.shed.queue_wait"),
			shedInflight:     r.Counter("engine.shed.inflight"),
			shedAbandoned:    r.Counter("engine.shed.abandoned_workers"),
			shedCircuit:      r.Counter("engine.shed.circuit_open"),
			shedDraining:     r.Counter("engine.shed.draining"),
			abandonedWorkers: r.Gauge("engine.abandoned_workers"),

			breakerOpened:   r.Counter("engine.breaker.opened"),
			breakerReclosed: r.Counter("engine.breaker.reclosed"),
			breakerProbes:   r.Counter("engine.breaker.half_open_probes"),
			breakerState:    r.Gauge("engine.breaker.state"),

			healthState: r.Gauge("engine.health.state"),
			drains:      r.Counter("engine.drains"),

			r: r,
		}
	})
}

// workerStage resolves a per-worker stage bundle
// (engine.worker<i>.<kind>.{seconds,calls,bytes,errors}), cached per
// (index, kind). kind is "encode" or "decode".
func (m *engineMetrics) workerStage(i int, kind string) *obs.Stage {
	if m.r == nil {
		return nil
	}
	key := fmt.Sprintf("%d/%s", i, kind)
	if s, ok := m.stages.Load(key); ok {
		return s.(*obs.Stage)
	}
	//sledvet:ignore metriclit per-worker scope names are bounded by Config.Workers and kind is one of two literals
	s := m.r.Scope(fmt.Sprintf("engine.worker%d", i)).Stage(kind)
	actual, _ := m.stages.LoadOrStore(key, s)
	return actual.(*obs.Stage)
}
