// Package engine runs the coexistence codecs across a shared pool of
// workers: batch and streaming front-ends over the shared plan cache,
// with bounded queues for backpressure and full pipeline instrumentation.
// It exists so callers that process many frames (sweeps, simulators,
// traffic generators) saturate every core without re-deriving plans or
// re-implementing fan-out. Each worker owns one registry codec instance
// (plus, for SledZig, the encoder of its own encode path) whose scratch
// buffers are recycled frame to frame. Encoded frames of every backend
// render their waveforms on demand.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sledzig/internal/codec"
	"sledzig/internal/core"
	"sledzig/internal/obs"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

// ErrClosed is returned by batch and stream submissions after Close.
var ErrClosed = errors.New("engine closed")

// ErrFramePanic marks a frame whose encode or decode panicked inside a
// worker. The panic is converted into this per-frame error — the worker,
// its pool, and every sibling frame in the batch keep running.
var ErrFramePanic = errors.New("engine: frame worker panicked")

// ErrFrameTimeout marks a frame that exceeded Config.FrameTimeout. The
// worker abandons the stuck computation (it finishes in the background on
// private state) and continues with fresh encoder/decoder state.
var ErrFrameTimeout = errors.New("engine: frame deadline exceeded")

// Config selects the frame parameters (one engine encodes one
// plan — convention, mode, channel, seed) and the pool geometry.
type Config struct {
	Convention wifi.Convention
	Mode       wifi.Mode
	Channel    core.ZigBeeChannel
	// Seed is the scrambler seed (0 selects wifi.DefaultScramblerSeed).
	Seed uint8

	// Workers is the number of encoder goroutines; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Queue bounds the job queue and each Stream's output channel;
	// <= 0 selects 2*Workers. A full queue blocks submitters — that is
	// the backpressure contract.
	Queue int

	// FrameTimeout bounds each frame's encode or decode wall time; a frame
	// past the deadline fails with ErrFrameTimeout while its batch
	// siblings proceed. Zero disables the deadline (and its small
	// per-frame goroutine cost).
	FrameTimeout time.Duration

	// MaxQueueWait bounds how long a submission may wait for queue
	// capacity before being shed with a typed *Overload (ErrOverloaded).
	// Zero keeps the original blocking-backpressure contract: wait until
	// a worker frees capacity or the caller's context dies.
	MaxQueueWait time.Duration
	// MaxInflight caps admitted-but-unfinished frames across the queue
	// and the workers; beyond it submissions shed with ErrOverloaded.
	// <= 0 disables the cap.
	MaxInflight int
	// MaxAbandoned caps concurrently timeout-abandoned frame goroutines;
	// at the cap new frames shed with ErrOverloaded rather than risk
	// spawning another. 0 selects 16*Workers; negative disables the cap.
	MaxAbandoned int
	// Breaker configures the engine's circuit breaker; the zero value
	// disables it (see BreakerConfig).
	Breaker BreakerConfig
	// Resilient enables the receivers' graceful-degradation ladder
	// (preamble resync after a failed decode at sample 0).
	Resilient bool

	// Codec selects a registry backend ("sledzig", "ook-ctc", "ofdmfi",
	// ...); empty selects "sledzig". Every frame decodes through a
	// codec.New instance, one per worker, and other backends' frames
	// encode through its Assemble. SledZig frames encode through the
	// shared cached plan instead.
	Codec string
}

const codecSledZig = "sledzig"

// codecParams maps the engine config onto codec-layer parameters.
func (c Config) codecParams() codec.Params {
	return codec.Params{
		Convention: c.Convention,
		Mode:       c.Mode,
		Channel:    c.Channel,
		Seed:       c.Seed,
		Resilient:  c.Resilient,
	}
}

// withDefaults resolves the pool geometry and the backend name.
func (c Config) withDefaults() Config {
	if c.Codec == "" {
		c.Codec = codecSledZig
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 2 * c.Workers
	}
	return c
}

// job is one unit of work in flight: an encode (payload set) or a decode
// (decode true, waveform set). deliver is called exactly once with the
// outcome, then done (when set) is released.
type job struct {
	decode   bool
	payload  []byte
	waveform []complex128
	idx      int
	// ctx is the submitting call's context; a worker dequeuing a job whose
	// context already expired fails it immediately without touching the
	// PHY — cancellation drains a full queue at channel speed.
	ctx context.Context

	deliver func(idx int, r result, err error)
	done    *sync.WaitGroup

	// probe marks a frame admitted as a half-open circuit-breaker trial;
	// its outcome (or shed) must hand the probe slot back.
	probe bool

	// tr is the frame's trace (nil when tracing is off): started at
	// submission, marked Enqueued/Dequeued around the queue hop, threaded
	// into the PHY pipelines for stage spans, and finished by the worker.
	tr *trace.Frame
}

// result is one frame's product: enc for an encode, dec for a decode. A
// failed frame's result is zero.
type result struct {
	enc Product
	dec *codec.Decoded
}

// Engine is a fixed pool of encoder workers sharing one cached plan.
// All methods are safe for concurrent use.
type Engine struct {
	cfg  Config
	plan *core.Plan
	// id is the engine's slot in the live-engine health registry.
	id uint64

	// now is the engine's clock seam: batch latency metrics, breaker
	// cooldowns, and health recency all read time through it so tests
	// (and deterministic replay harnesses) can inject a fake clock. New
	// wires it to time.Now.
	now func() time.Time

	// breaker is nil unless Config.Breaker enables it.
	breaker *breaker

	// state is the admission gate (accepting/draining/closed); inflight
	// counts admitted-but-unfinished frames (each submission reserves
	// before enqueueing, each outcome — delivered, shed, or skipped —
	// releases); abandoned counts live timeout-abandoned frame
	// goroutines; lastShedNS stamps the most recent shed decision for
	// health recency.
	state      atomic.Int32
	inflight   atomic.Int64
	abandoned  atomic.Int64
	lastShedNS atomic.Int64
	sheds      shedTally

	// drained closes (via drainOnce) when admission has stopped and the
	// inflight count reaches zero. shedQueued flips the workers into
	// shedding mode at a drain deadline; drainFlushed/drainShedN account
	// the drain's per-frame disposition.
	drained      chan struct{}
	drainOnce    sync.Once
	shedQueued   atomic.Bool
	drainFlushed atomic.Uint64
	drainShedN   atomic.Uint64

	mu     sync.RWMutex // guards closed vs. sends on jobs
	closed bool
	jobs   chan *job
	wg     sync.WaitGroup
}

// New builds the engine and starts the workers. The backend is
// constructed once up front to surface configuration errors here rather
// than per frame. For SledZig the plan resolves through the process-wide
// plan cache, so engines and plain Encoders with the same parameters
// share constraint state.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if _, err := codec.New(cfg.Codec, cfg.codecParams()); err != nil {
		return nil, err
	}
	var plan *core.Plan
	if cfg.Codec == codecSledZig {
		var err error
		plan, err = core.CachedPlan(cfg.Convention, cfg.Mode, cfg.Channel)
		if err != nil {
			return nil, err
		}
	}
	e := &Engine{
		cfg:     cfg,
		plan:    plan,
		now:     time.Now,
		breaker: newBreaker(cfg.Breaker),
		drained: make(chan struct{}),
		jobs:    make(chan *job, cfg.Queue),
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker(i)
	}
	registerEngine(e)
	return e, nil
}

// Workers returns the resolved worker count.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Plan exposes the engine's shared, read-only plan (nil when a generic
// codec backend is selected — those own their pinning state).
func (e *Engine) Plan() *core.Plan { return e.plan }

// workerState is one worker's mutable PHY state. It is rebuilt whenever a
// frame is abandoned to a deadline: the timed-out goroutine still owns the
// old codec instance (and encoder), so the worker must never touch them
// again.
type workerState struct {
	e   *Engine
	cdc codec.Codec
	enc *core.Encoder // SledZig encode path; nil for other codecs
}

func (w *workerState) reset() {
	// New validated this construction; a failure here means the registry
	// changed underneath a running engine — fail loudly.
	cdc, err := codec.New(w.e.cfg.Codec, w.e.cfg.codecParams())
	if err != nil {
		panic(fmt.Sprintf("engine: codec %q vanished mid-run: %v", w.e.cfg.Codec, err))
	}
	w.cdc = cdc
	if w.e.plan != nil {
		w.enc = &core.Encoder{Plan: w.e.plan, Seed: w.e.cfg.Seed}
	}
}

// testFrameHook, when non-nil, runs inside the guarded section before each
// frame — the seam the robustness tests use to inject panics and stalls.
var testFrameHook func(j *job)

// FrameHookInfo describes the frame about to run when a process-wide
// frame hook (SetFrameHook) is installed.
type FrameHookInfo struct {
	// Codec is the engine's backend name ("sledzig", "ofdmfi", ...).
	Codec string
	// Decode is true for decode frames, false for encode.
	Decode bool
	// Index is the frame's slot in its batch.
	Index int
}

// frameHook is the process-wide fault-injection hook; atomic so harnesses
// can install and remove it while engines run.
var frameHook atomic.Pointer[func(FrameHookInfo)]

// SetFrameHook installs (nil removes) a process-wide hook that runs inside
// every frame's containment boundary, before the PHY work. It exists for
// fault-injection harnesses (cmd/chaos -overload) that need to drive panic
// and stall storms through the same recovery, timeout, breaker, and
// admission machinery real failures exercise. Not a production seam.
func SetFrameHook(h func(FrameHookInfo)) {
	if h == nil {
		frameHook.Store(nil)
		return
	}
	frameHook.Store(&h)
}

// strike runs the frame hooks for one frame; called inside the guarded
// section so an injected panic or stall is contained like a real one.
func (e *Engine) strike(j *job) {
	if h := testFrameHook; h != nil {
		h(j)
	}
	if hp := frameHook.Load(); hp != nil {
		(*hp)(FrameHookInfo{Codec: e.cfg.Codec, Decode: j.decode, Index: j.idx})
	}
}

// frame runs one frame of any kind on the given instances, converting a
// panic into a typed per-frame error carrying the stack: the boundary that
// keeps one hostile frame from taking down the worker pool. An encode goes
// through enc when the engine has one (SledZig's shared plan); every other
// frame goes through the codec instance, whose trace it attaches for the
// frame.
func (e *Engine) frame(j *job, cdc codec.Codec, enc *core.Encoder) (r result, err error) {
	defer func() {
		if p := recover(); p != nil {
			metrics().panics.Inc()
			r, err = result{}, fmt.Errorf("%w: %v\n%s", ErrFramePanic, p, debug.Stack())
		}
	}()
	if j.decode || enc == nil {
		cdc.SetTrace(j.tr)
		defer cdc.SetTrace(nil)
	} else {
		enc.Trace = j.tr
	}
	e.strike(j)
	switch {
	case j.decode:
		r.dec, err = cdc.Decode(j.waveform)
	case enc != nil:
		r.enc.Core, err = enc.Encode(j.payload)
	default:
		r.enc.Generic, err = cdc.Assemble(j.payload)
	}
	if err != nil {
		return result{}, err
	}
	return r, nil
}

// guarded runs one frame on the instances the worker held when the frame
// started, under panic recovery and, when configured, the per-frame
// deadline. On deadline or context expiry the frame is abandoned to finish
// on its own, on those instances, which reset replaces in the worker; a
// typed error is returned promptly. Abandoned goroutines are counted in
// the abandoned_workers gauge and capped by Config.MaxAbandoned: at the
// cap a new frame sheds with ErrOverloaded instead of risking yet another
// background goroutine.
func (w *workerState) guarded(j *job, cdc codec.Codec, enc *core.Encoder) (result, error) {
	e := w.e
	timeout := e.cfg.FrameTimeout
	if timeout <= 0 {
		return e.frame(j, cdc, enc)
	}
	if limit := e.abandonedCap(); limit > 0 && int(e.abandoned.Load()) >= limit {
		e.noteShed(&e.sheds.abandoned, metrics().shedAbandoned)
		return result{}, e.overload(OverloadAbandoned, 0)
	}
	// fate arbitrates the race between the frame finishing and the worker
	// abandoning it: whichever side loses its CAS settles the abandoned
	// tally, and a frame that finishes at the buzzer still wins — the
	// worker takes its real result instead of reporting a timeout.
	var fate atomic.Int32
	done := make(chan Outcome[result], 1)
	go func() {
		r, err := e.frame(j, cdc, enc)
		if !fate.CompareAndSwap(frameRunning, frameFinished) {
			// The worker abandoned this frame; this goroutine was the
			// tallied abandoned worker and has now retired.
			e.abandonedDone()
		}
		done <- Outcome[result]{Result: r, Err: err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var cancel <-chan struct{}
	if j.ctx != nil {
		cancel = j.ctx.Done()
	}
	select {
	case o := <-done:
		return o.Result, o.Err
	case <-timer.C:
		if !e.abandonFrame(&fate) {
			o := <-done
			return o.Result, o.Err
		}
		metrics().timeouts.Inc()
		w.reset()
		return result{}, fmt.Errorf("%w (%v)", ErrFrameTimeout, timeout)
	case <-cancel:
		if !e.abandonFrame(&fate) {
			o := <-done
			return o.Result, o.Err
		}
		w.reset()
		return result{}, j.ctx.Err()
	}
}

// Product is one encoded frame from either path; exactly one field is
// set. Core carries the specialized SledZig result, Generic the registry
// codec's assembled frame, which renders on demand
// (codec.Encoded.AppendWaveform).
type Product struct {
	Core    *core.EncodeResult
	Generic *codec.Encoded
}

func (e *Engine) worker(i int) {
	defer e.wg.Done()
	m := metrics()
	encStage := m.workerStage(i, "encode")
	decStage := m.workerStage(i, "decode")
	w := &workerState{e: e}
	w.reset()
	for j := range e.jobs {
		m.queueDepth.Add(-1)
		// At a drain deadline the workers stop running frames and hand
		// everything still queued back to its callers as ErrDraining.
		if e.shedQueued.Load() {
			e.drainShedN.Add(1)
			e.noteShed(&e.sheds.draining, m.shedDraining)
			e.breaker.Release(j.probe)
			e.failJob(j, ErrDraining)
			e.releaseInflight()
			continue
		}
		j.tr.Dequeued(i)
		// A dead context fails the frame before any PHY work: cancellation
		// drains the queue promptly instead of decoding doomed frames.
		if j.ctx != nil {
			if err := j.ctx.Err(); err != nil {
				e.breaker.Release(j.probe)
				e.failJob(j, err)
				e.releaseInflight()
				continue
			}
		}
		sm, stage := &m.encode, encStage
		if j.decode {
			sm, stage = &m.decode, decStage
		}
		pass := stage.Start()
		r, err := w.guarded(j, w.cdc, w.enc)
		e.finishFrame(sm.frameLatency, j, err)
		// Stage bytes: the payload in for an encode, out for a decode.
		n := len(j.payload)
		if r.dec != nil {
			n = len(r.dec.Payload)
		}
		pass.End(n, err)
		if err != nil {
			sm.failures.Inc()
		}
		j.deliver(j.idx, r, err)
		if j.done != nil {
			j.done.Done()
		}
		e.frameDone(j, err)
	}
}

// frameDone settles one completed frame's reliability accounting: the
// breaker outcome, the drain flush tally, and the inflight reservation.
func (e *Engine) frameDone(j *job, err error) {
	if e.breaker.Record(e.now(), j.probe, err != nil) {
		publishHealthGauge()
	}
	if e.state.Load() == admitDraining {
		e.drainFlushed.Add(1)
	}
	e.releaseInflight()
}

// finishFrame closes the frame's trace with its outcome, observes the
// per-frame latency histogram (with an exemplar naming the trace when the
// frame was traced), and triggers a flight-recorder fault dump for
// contained panics and deadline abandonments. With tracing off the only
// cost beyond the existing histogram observation is two nil checks.
func (e *Engine) finishFrame(h *obs.Histogram, j *job, err error) {
	if j.tr != nil {
		j.tr.Finish(err)
		secs := float64(j.tr.TotalNS()) / 1e9
		h.ObserveExemplar(secs, j.tr.TraceIDHex(), e.now().UnixNano())
		if errors.Is(err, ErrFramePanic) {
			trace.Fault("frame_panic")
		} else if errors.Is(err, ErrFrameTimeout) {
			trace.Fault("frame_timeout")
		}
	}
}

// submit admits and enqueues one job. Admission runs the whole reliability
// ladder in order: closed/draining state, the abandoned-worker cap, the
// circuit breaker, the inflight cap, then the bounded queue wait — each
// stage sheds with its own typed error rather than stalling the caller.
func (e *Engine) submit(ctx context.Context, j *job) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	m := metrics()
	switch e.state.Load() {
	case admitClosed:
		return ErrClosed
	case admitDraining:
		e.noteShed(&e.sheds.draining, m.shedDraining)
		return ErrDraining
	}
	if limit := e.abandonedCap(); limit > 0 && int(e.abandoned.Load()) >= limit {
		e.noteShed(&e.sheds.abandoned, m.shedAbandoned)
		return e.overload(OverloadAbandoned, 0)
	}
	admit, probe := e.breaker.Allow(e.now())
	if !admit {
		e.noteShed(&e.sheds.circuit, m.shedCircuit)
		return fmt.Errorf("%w: codec %q failing fast", ErrCircuitOpen, e.cfg.Codec)
	}
	j.probe = probe
	// Reserve the inflight slot before the send: a worker finishing the
	// job must never release a reservation that was not yet taken, or the
	// drain-complete signal could fire with work still admitted.
	if limit := e.cfg.MaxInflight; limit > 0 {
		if nv := e.inflight.Add(1); int(nv) > limit {
			e.releaseInflight()
			e.breaker.Release(probe)
			e.noteShed(&e.sheds.inflight, m.shedInflight)
			return e.overload(OverloadInflight, 0)
		}
	} else {
		e.inflight.Add(1)
	}
	select {
	case e.jobs <- j:
		m.queueDepth.Add(1)
		return nil
	default:
	}
	if e.cfg.MaxQueueWait <= 0 {
		// Original backpressure contract: block until a worker frees
		// capacity or the caller's context dies.
		select {
		case e.jobs <- j:
			m.queueDepth.Add(1)
			return nil
		case <-ctx.Done():
			e.releaseInflight()
			e.breaker.Release(probe)
			return ctx.Err()
		}
	}
	start := e.now()
	timer := time.NewTimer(e.cfg.MaxQueueWait)
	defer timer.Stop()
	select {
	case e.jobs <- j:
		m.queueDepth.Add(1)
		return nil
	case <-timer.C:
		e.releaseInflight()
		e.breaker.Release(probe)
		e.noteShed(&e.sheds.queueWait, m.shedQueueWait)
		return e.overload(OverloadQueueWait, e.now().Sub(start))
	case <-ctx.Done():
		e.releaseInflight()
		e.breaker.Release(probe)
		return ctx.Err()
	}
}

// Outcome is one frame's result. Index is the frame's zero-based position
// in its batch or input stream; exactly one of Result and Err is set.
type Outcome[R any] struct {
	Index  int
	Result R
	Err    error
}

// side binds one direction's input and result types to the one job type.
type side[In, R any] struct {
	decode bool
	noun   string // names an input in first-error batch errors
	set    func(j *job, in In)
	get    func(r result) R
}

var (
	encodeSide = side[[]byte, Product]{
		noun: "payload",
		set:  func(j *job, p []byte) { j.payload = p },
		get:  func(r result) Product { return r.enc },
	}
	decodeSide = side[[]complex128, *codec.Decoded]{
		decode: true,
		noun:   "waveform",
		set:    func(j *job, w []complex128) { j.waveform = w },
		get:    func(r result) *codec.Decoded { return r.dec },
	}
)

// enqueue builds and submits the job for input idx, finishing its trace if
// the submission fails.
func (s side[In, R]) enqueue(e *Engine, ctx context.Context, in In, idx int,
	deliver func(int, result, error), done *sync.WaitGroup) error {
	j := &job{decode: s.decode, idx: idx, ctx: ctx, deliver: deliver, done: done}
	s.set(j, in)
	if s.decode {
		j.tr = trace.Start("decode")
	} else {
		j.tr = trace.Start("encode")
	}
	j.tr.Enqueued()
	err := e.submit(ctx, j)
	if err != nil {
		j.tr.Finish(err)
	}
	return err
}

// each runs every input across the pool and returns one outcome per input,
// in input order. A failing frame — invalid input, a panic converted by the
// worker, a deadline — fails only its own slot; siblings complete
// normally. A cancelled context fails the unsubmitted remainder with the
// context error but still waits for frames already on a worker.
func (s side[In, R]) each(e *Engine, ctx context.Context, inputs []In) []Outcome[R] {
	m := &metrics().encode
	if s.decode {
		m = &metrics().decode
	}
	start := e.now()
	outcomes := make([]Outcome[R], len(inputs))
	var done sync.WaitGroup
	deliver := func(idx int, r result, err error) {
		outcomes[idx] = Outcome[R]{Index: idx, Result: s.get(r), Err: err}
	}
	for i, in := range inputs {
		done.Add(1)
		if err := s.enqueue(e, ctx, in, i, deliver, &done); err != nil {
			done.Done()
			for k := i; k < len(inputs); k++ {
				outcomes[k] = Outcome[R]{Index: k, Err: err}
			}
			break
		}
	}
	done.Wait()
	m.batchLatency.ObserveDuration(e.now().Sub(start))
	m.batches.Inc()
	ok := 0
	for _, o := range outcomes {
		if o.Err == nil {
			ok++
		}
	}
	m.frames.Add(uint64(ok))
	return outcomes
}

// batch runs every input across the pool and returns the results in input
// order. The first error (by input order) is returned after all submitted
// work has drained; a cancelled context abandons the unsubmitted remainder
// but still waits for in-flight frames.
func (s side[In, R]) batch(e *Engine, ctx context.Context, inputs []In) ([]R, error) {
	outcomes := s.each(e, ctx, inputs)
	results := make([]R, len(outcomes))
	for i, o := range outcomes {
		if o.Err != nil {
			return nil, fmt.Errorf("engine: %s %d: %w", s.noun, i, o.Err)
		}
		results[i] = o.Result
	}
	return results, nil
}

// stream runs inputs read from in across the pool, delivering outcomes on
// the returned channel (buffered to Config.Queue). With more than one
// worker the delivery order is unspecified. The output channel is closed
// once every accepted input has been delivered, after in closes or ctx is
// cancelled. Both queues are bounded: a stalled consumer blocks the
// workers, a full job queue blocks the reader — backpressure propagates to
// the producer instead of buffering unboundedly.
func (s side[In, R]) stream(e *Engine, ctx context.Context, in <-chan In) <-chan Outcome[R] {
	out := make(chan Outcome[R], e.cfg.Queue)
	go func() {
		defer close(out)
		var inflight sync.WaitGroup
		send := func(o Outcome[R]) {
			select {
			case out <- o:
			case <-ctx.Done():
			}
		}
		deliver := func(idx int, r result, err error) {
			send(Outcome[R]{Index: idx, Result: s.get(r), Err: err})
			inflight.Done()
		}
		for idx := 0; ; idx++ {
			var v In
			ok := false
			select {
			case <-ctx.Done():
			case v, ok = <-in:
			}
			if !ok {
				break
			}
			inflight.Add(1)
			if err := s.enqueue(e, ctx, v, idx, deliver, nil); err != nil {
				inflight.Done()
				send(Outcome[R]{Index: idx, Err: err})
				break
			}
		}
		inflight.Wait()
	}()
	return out
}

// EncodeEach encodes every payload across the pool and returns one outcome
// per payload, in input order; see side.each.
func (e *Engine) EncodeEach(ctx context.Context, payloads [][]byte) []Outcome[Product] {
	return encodeSide.each(e, ctx, payloads)
}

// DecodeEach decodes every waveform across the pool and returns one
// outcome per waveform, in input order; see side.each. A hostile waveform
// — truncated, bit garbage, one that panics or stalls the decoder — fails
// only its own slot.
func (e *Engine) DecodeEach(ctx context.Context, waveforms [][]complex128) []Outcome[*codec.Decoded] {
	return decodeSide.each(e, ctx, waveforms)
}

// EncodeBatch encodes every payload across the pool and returns the
// results in input order, or the first error; see side.batch. Callers that
// need sibling results to survive one bad frame use EncodeEach.
func (e *Engine) EncodeBatch(ctx context.Context, payloads [][]byte) ([]Product, error) {
	return encodeSide.batch(e, ctx, payloads)
}

// DecodeBatch decodes every waveform across the pool and returns the
// results in input order, or the first error; see side.batch. The results
// are identical to decoding the waveforms one after another on a single
// instance of the configured backend; each is the one the worker's backend
// built, self-contained and safe to retain. Callers that need sibling
// results to survive one bad frame use DecodeEach.
func (e *Engine) DecodeBatch(ctx context.Context, waveforms [][]complex128) ([]*codec.Decoded, error) {
	return decodeSide.batch(e, ctx, waveforms)
}

// Stream encodes payloads read from in across the pool; see side.stream.
func (e *Engine) Stream(ctx context.Context, in <-chan []byte) <-chan Outcome[Product] {
	return encodeSide.stream(e, ctx, in)
}

// DecodeStream decodes waveforms read from in across the pool; see
// side.stream.
func (e *Engine) DecodeStream(ctx context.Context, in <-chan []complex128) <-chan Outcome[*codec.Decoded] {
	return decodeSide.stream(e, ctx, in)
}

// Close stops accepting work, runs everything already queued, and waits
// for the workers to exit. Safe to call more than once, and safe to mix
// with Drain (whichever wins shuts the engine; the other observes it).
// Shutdown paths that need a deadline and per-frame accounting use Drain.
func (e *Engine) Close() {
	e.closeNow()
	e.wg.Wait()
	e.state.Store(admitClosed)
	e.drainOnce.Do(func() { close(e.drained) })
	unregisterEngine(e)
}
