// Package trace is the frame-scoped tracing layer of the observability
// substrate: one root span per encode or decode with child spans for every
// pipeline stage (payload→codeword→waveform on TX; preamble detect →
// SIGNAL → equalize → demap → Viterbi → descramble on RX), queue-wait vs.
// service time attribution through the engine worker pool, head sampling
// plus tail-based capture (every failed, slow, panicked or timed-out frame
// is retained), a lock-free flight recorder holding the last N frame
// traces, and exporters in JSONL and Chrome trace-event format (loadable
// in Perfetto).
//
// Like the metrics registry, everything is nil-safe: with no Tracer
// installed, Start returns a nil *Frame whose methods touch no span, and
// Begin/End then only feed the stage's metrics (nothing, and no clock
// read, when no registry is installed either), so the disabled hot path
// costs a nil check per instrumentation point and zero allocations.
package trace

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sledzig/internal/obs"
)

// Config selects the tracer's sampling and retention policy. The zero
// value is a tail-capture-only tracer: every frame is recorded into the
// flight ring, but only failed frames are retained for export.
type Config struct {
	// SampleEvery enables head sampling: every Nth frame is retained for
	// export regardless of outcome (1 retains every frame, 0 disables head
	// sampling — failures and slow frames are still captured).
	SampleEvery int
	// LatencyThreshold enables tail capture by latency: any frame whose
	// total wall time meets or exceeds it is retained. Zero disables the
	// latency rung (errors are always retained).
	LatencyThreshold time.Duration
	// FlightSize is the flight recorder capacity in frames (default 256):
	// the last N finished frame traces, regardless of retention.
	FlightSize int
	// RetainedSize bounds the retained ring served by /debug/traces
	// (default 64).
	RetainedSize int
	// FaultDumpPath, when non-empty, is the file the flight recorder is
	// dumped to (as JSON, overwriting) whenever a fault is reported — an
	// engine frame panic or timeout, or an explicit Fault call.
	FaultDumpPath string
}

func (c Config) withDefaults() Config {
	if c.FlightSize <= 0 {
		c.FlightSize = 256
	}
	if c.RetainedSize <= 0 {
		c.RetainedSize = 64
	}
	return c
}

// Tracer issues frame traces and owns the retention machinery. All methods
// on a nil *Tracer are no-ops, mirroring the obs registry contract.
type Tracer struct {
	cfg Config
	seq atomic.Uint64

	flight   ring // every finished frame, last FlightSize
	retained ring // head-sampled and tail-captured frames, last RetainedSize

	expMu     sync.Mutex
	exporters []Exporter

	faultMu sync.Mutex
}

// New builds a tracer with the given policy.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{cfg: cfg}
	t.flight.init(cfg.FlightSize)
	t.retained.init(cfg.RetainedSize)
	return t
}

// defaultTracer is the process-wide opt-in tracer; nil until SetDefault.
var defaultTracer atomic.Pointer[Tracer]

// SetDefault installs t as the process-wide tracer picked up by the engine
// and the facade encode/decode paths, and mounts the /debug/traces
// endpoint on the obs diagnostics mux. Passing nil turns tracing back off
// (the endpoint stays mounted and reports tracing disabled).
func SetDefault(t *Tracer) {
	registerHandlerOnce.Do(func() {
		obs.RegisterDebugHandler("/debug/traces", Handler())
	})
	defaultTracer.Store(t)
}

// Default returns the process-wide tracer, or nil when tracing is off.
func Default() *Tracer { return defaultTracer.Load() }

// Start begins a frame trace of the given kind ("encode", "decode", ...)
// on the default tracer; nil (all methods no-ops) when tracing is off.
func Start(kind string) *Frame { return Default().Start(kind) }

// maxFrameSpans bounds the distinct span names one frame can carry; spans
// past the cap are dropped rather than grown (the pipeline has ~16 stages).
const maxFrameSpans = 24

// Span is one named slice of a frame's timeline. Stages that run once per
// OFDM symbol (equalize, demap, deinterleave) accumulate: DurNS sums every
// occurrence and Count tells them apart from single-shot stages.
type Span struct {
	Name    string
	StartNS int64 // offset from frame start, first occurrence
	EndNS   int64 // offset from frame start, last occurrence end
	DurNS   int64 // accumulated busy time
	Count   int
}

// Frame is one in-flight frame trace. It is created by Tracer.Start,
// carried through the engine job queue and the PHY/core pipelines, and
// closed exactly once by Finish. All methods are safe for concurrent use
// and safe on a nil *Frame (no-ops without clock reads) — the engine's
// deadline containment can abandon a pipeline goroutine that still holds
// the frame; its late span writes are dropped once the frame finished.
type Frame struct {
	t       *Tracer
	id      uint64
	kind    string
	sampled bool
	base    time.Time

	mu         sync.Mutex
	done       bool
	totalNS    int64
	queuedNS   int64
	dequeuedNS int64
	worker     int
	err        string
	nspans     int
	spans      [maxFrameSpans]Span
}

// Start begins a frame trace of the given kind. Returns nil (no-op
// methods) on a nil tracer.
func (t *Tracer) Start(kind string) *Frame {
	if t == nil {
		return nil
	}
	id := t.seq.Add(1)
	f := &Frame{
		t:          t,
		id:         id,
		kind:       kind,
		base:       time.Now(),
		queuedNS:   -1,
		dequeuedNS: -1,
		worker:     -1,
	}
	if n := t.cfg.SampleEvery; n > 0 && id%uint64(n) == 0 {
		f.sampled = true
	}
	metrics().started.Inc()
	return f
}

// TraceID returns the frame's numeric trace ID (0 on nil) — the value
// histogram exemplars carry to link latency buckets back to traces.
func (f *Frame) TraceID() uint64 {
	if f == nil {
		return 0
	}
	return f.id
}

// TraceIDHex returns the frame's trace ID in the 16-hex-digit form used by
// snapshots and exemplars ("" on nil).
func (f *Frame) TraceIDHex() string {
	if f == nil {
		return ""
	}
	return fmt.Sprintf("%016x", f.id)
}

// TotalNS returns the frame's total wall time in nanoseconds; 0 until
// Finish has run.
func (f *Frame) TotalNS() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.totalNS
}

// now returns the monotonic offset from the frame's start.
func (f *Frame) now() int64 { return int64(time.Since(f.base)) }

// Enqueued records the moment the frame entered a work queue; together
// with Dequeued it attributes queue wait separately from service time.
func (f *Frame) Enqueued() {
	if f == nil {
		return
	}
	n := f.now()
	f.mu.Lock()
	if !f.done && f.queuedNS < 0 {
		f.queuedNS = n
	}
	f.mu.Unlock()
}

// Dequeued records the moment a worker picked the frame up, and which
// worker. Everything after this point is service time.
func (f *Frame) Dequeued(worker int) {
	if f == nil {
		return
	}
	n := f.now()
	f.mu.Lock()
	if !f.done && f.dequeuedNS < 0 {
		f.dequeuedNS = n
		f.worker = worker
	}
	f.mu.Unlock()
}

// Mark is an open stage occurrence returned by Begin: the stage's metric
// pass plus, on a traced frame, its span. Close it with End. The zero
// Mark is a no-op.
type Mark struct {
	p   obs.Pass
	f   *Frame
	idx int32
	t0  int64
}

// Begin opens one pass of the stage and (re-)opens its span, named after
// the stage, accumulating across occurrences. On a nil frame only the
// stage pass opens; with metrics off as well, Begin returns the zero Mark
// without reading the clock.
func (f *Frame) Begin(st *obs.Stage) Mark {
	p := st.Start()
	if f == nil {
		return Mark{p: p}
	}
	name := st.Name()
	n := f.now()
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return Mark{p: p}
	}
	idx := -1
	for i := 0; i < f.nspans; i++ {
		if f.spans[i].Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		if f.nspans == maxFrameSpans {
			f.mu.Unlock()
			return Mark{p: p}
		}
		idx = f.nspans
		f.spans[idx] = Span{Name: name, StartNS: n}
		f.nspans++
	}
	f.mu.Unlock()
	return Mark{p: p, f: f, idx: int32(idx), t0: n}
}

// End closes the stage pass (n payload bytes on success, one error when
// err is non-nil; see obs.Pass.End) and the span occurrence, accumulating
// its duration. Safe after the frame finished (the span write is dropped).
func (m Mark) End(n int, err error) {
	m.p.End(n, err)
	if m.f == nil {
		return
	}
	now := m.f.now()
	m.f.mu.Lock()
	if !m.f.done && int(m.idx) < m.f.nspans {
		sp := &m.f.spans[m.idx]
		sp.DurNS += now - m.t0
		sp.EndNS = now
		sp.Count++
	}
	m.f.mu.Unlock()
}

// Finish closes the frame trace with its outcome and runs the retention
// decision: the snapshot always enters the flight recorder; head-sampled
// frames, failed frames and frames past the latency threshold are
// additionally retained for export and /debug/traces. Finish is
// idempotent; only the first call takes effect.
func (f *Frame) Finish(err error) {
	if f == nil {
		return
	}
	total := f.now()
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return
	}
	f.done = true
	f.totalNS = total
	if err != nil {
		f.err = err.Error()
	}
	snap := f.snapshotLocked(total)
	f.mu.Unlock()

	t := f.t
	reason := ""
	switch {
	case err != nil:
		reason = "error"
	case f.sampled:
		reason = "head"
	case t.cfg.LatencyThreshold > 0 && time.Duration(total) >= t.cfg.LatencyThreshold:
		reason = "slow"
	}
	snap.Retained = reason

	m := metrics()
	m.finished.Inc()
	t.flight.put(snap)
	if reason == "" {
		return
	}
	switch reason {
	case "error":
		m.retainedErr.Inc()
	case "head":
		m.retainedHead.Inc()
	case "slow":
		m.retainedSlow.Inc()
	}
	t.retained.put(snap)
	t.expMu.Lock()
	exps := t.exporters
	t.expMu.Unlock()
	for _, e := range exps {
		if eerr := e.ExportFrame(snap); eerr != nil {
			m.exportErrors.Inc()
		}
	}
}

// snapshotLocked builds the immutable copy of the frame; f.mu held.
func (f *Frame) snapshotLocked(total int64) *Snapshot {
	s := &Snapshot{
		TraceID:     fmt.Sprintf("%016x", f.id),
		Kind:        f.kind,
		Worker:      f.worker,
		StartUnixNS: f.base.UnixNano(),
		TotalNS:     total,
		Error:       f.err,
	}
	if f.queuedNS >= 0 && f.dequeuedNS >= f.queuedNS {
		s.QueueWaitNS = f.dequeuedNS - f.queuedNS
	}
	if f.dequeuedNS >= 0 {
		s.ServiceNS = total - f.dequeuedNS
	} else {
		s.ServiceNS = total
	}
	s.Spans = make([]SpanSnapshot, f.nspans)
	for i := 0; i < f.nspans; i++ {
		sp := f.spans[i]
		s.Spans[i] = SpanSnapshot{
			Name:    sp.Name,
			StartNS: sp.StartNS,
			EndNS:   sp.EndNS,
			DurNS:   sp.DurNS,
			Count:   sp.Count,
		}
	}
	return s
}

// SpanSnapshot is one span of a finished frame trace. Offsets are
// nanoseconds from the frame's start.
type SpanSnapshot struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	DurNS   int64  `json:"dur_ns"`
	Count   int    `json:"count,omitempty"`
}

// Snapshot is one finished frame trace — the JSON-friendly form the flight
// recorder stores and the exporters write.
type Snapshot struct {
	TraceID string `json:"trace_id"`
	Kind    string `json:"kind"`
	// Worker is the engine worker index that served the frame; -1 for
	// frames traced outside the pool (facade one-shot encode/decode).
	Worker      int   `json:"worker"`
	StartUnixNS int64 `json:"start_unix_ns"`
	// QueueWaitNS is time spent enqueued before a worker picked the frame
	// up; ServiceNS the time on the worker; TotalNS the whole frame.
	QueueWaitNS int64  `json:"queue_wait_ns"`
	ServiceNS   int64  `json:"service_ns"`
	TotalNS     int64  `json:"total_ns"`
	Error       string `json:"error,omitempty"`
	// Retained says why the frame was kept for export: "head" (sampling),
	// "error", or "slow"; empty for flight-recorder-only frames.
	Retained string         `json:"retained,omitempty"`
	Spans    []SpanSnapshot `json:"spans"`
}

// Flight returns the flight recorder's current contents, oldest first.
func (t *Tracer) Flight() []*Snapshot {
	if t == nil {
		return nil
	}
	return t.flight.snapshot()
}

// Retained returns the retained traces (head-sampled, failed, slow),
// oldest first.
func (t *Tracer) Retained() []*Snapshot {
	if t == nil {
		return nil
	}
	return t.retained.snapshot()
}

// AddExporter registers an exporter that receives every retained frame.
func (t *Tracer) AddExporter(e Exporter) {
	if t == nil || e == nil {
		return
	}
	t.expMu.Lock()
	t.exporters = append(t.exporters, e)
	t.expMu.Unlock()
}

// ErrNoTracer is returned by dump helpers when tracing is not enabled.
var ErrNoTracer = errors.New("trace: no tracer installed")

// Fault reports a fault (engine frame panic/timeout, a failed soak) on the
// default tracer: counts it and, when FaultDumpPath is configured, dumps
// the flight recorder there. Call sites pass a short literal reason.
func Fault(reason string) {
	t := Default()
	if t == nil {
		return
	}
	metrics().faultDumps.Inc()
	if t.cfg.FaultDumpPath == "" {
		return
	}
	t.faultMu.Lock()
	defer t.faultMu.Unlock()
	_ = t.dumpFile(t.cfg.FaultDumpPath, reason)
}
