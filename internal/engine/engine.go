// Package engine runs the coexistence codecs across a shared pool of
// workers: batch and streaming front-ends over the shared plan cache,
// with bounded queues for backpressure and full pipeline instrumentation.
// It exists so callers that process many frames (sweeps, simulators,
// traffic generators) saturate every core without re-deriving plans or
// re-implementing fan-out. Each worker owns one registry codec instance
// (plus, for SledZig, the encoder of the lazy-render encode path) whose
// scratch buffers are recycled frame to frame.
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
	// codec.New instance, one per worker. SledZig frames encode through
	// the shared cached plan instead, so their waveforms render lazily.
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

// job is one unit of work in flight — an encode (payload set) or a decode
// (waveform set). Exactly one deliver callback is non-nil and is called
// exactly once with the outcome, then done (when set) is released.
type job struct {
	payload  []byte
	waveform []complex128
	idx      int
	// ctx is the submitting call's context; a worker dequeuing a job whose
	// context already expired fails it immediately without touching the
	// PHY — cancellation drains a full queue at channel speed.
	ctx context.Context

	deliver    func(idx int, res *Product, err error)
	deliverDec func(idx int, res *codec.Decoded, err error)
	done       *sync.WaitGroup

	// probe marks a frame admitted as a half-open circuit-breaker trial;
	// its outcome (or shed) must hand the probe slot back.
	probe bool

	// tr is the frame's trace (nil when tracing is off): started at
	// submission, marked Enqueued/Dequeued around the queue hop, threaded
	// into the PHY pipelines for stage spans, and finished by the worker.
	tr *trace.Frame
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
func (e *Engine) strike(j *job, decode bool) {
	if h := testFrameHook; h != nil {
		h(j)
	}
	if hp := frameHook.Load(); hp != nil {
		(*hp)(FrameHookInfo{Codec: e.cfg.Codec, Decode: decode, Index: j.idx})
	}
}

// runProtected executes fn, converting a panic into a typed per-frame
// error carrying the stack. This is the boundary that keeps one hostile
// frame from taking down the worker pool.
func runProtected(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			metrics().panics.Inc()
			err = fmt.Errorf("%w: %v\n%s", ErrFramePanic, r, debug.Stack())
		}
	}()
	return fn()
}

// guarded runs fn under panic recovery and, when configured, the per-frame
// deadline. On deadline or context expiry the computation is abandoned to
// finish on its own (it holds only w's old state, which reset replaces)
// and a typed error is returned promptly. Abandoned goroutines are counted
// in the abandoned_workers gauge and capped by Config.MaxAbandoned: at the
// cap a new frame sheds with ErrOverloaded instead of risking yet another
// background goroutine.
func (w *workerState) guarded(ctx context.Context, fn func() error) error {
	e := w.e
	timeout := e.cfg.FrameTimeout
	if timeout <= 0 {
		return runProtected(fn)
	}
	if limit := e.abandonedCap(); limit > 0 && int(e.abandoned.Load()) >= limit {
		e.noteShed(&e.sheds.abandoned, metrics().shedAbandoned)
		return e.overload(OverloadAbandoned, 0)
	}
	// fate arbitrates the race between the frame finishing and the worker
	// abandoning it: whichever side loses its CAS settles the abandoned
	// tally, and a frame that finishes at the buzzer still wins — the
	// worker takes its real result instead of reporting a timeout.
	var fate atomic.Int32
	done := make(chan error, 1)
	go func() {
		err := runProtected(fn)
		if !fate.CompareAndSwap(frameRunning, frameFinished) {
			// The worker abandoned this frame; this goroutine was the
			// tallied abandoned worker and has now retired.
			e.abandonedDone()
		}
		done <- err
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	select {
	case err := <-done:
		return err
	case <-timer.C:
		if !e.abandonFrame(&fate) {
			return <-done
		}
		metrics().timeouts.Inc()
		w.reset()
		return fmt.Errorf("%w (%v)", ErrFrameTimeout, timeout)
	case <-cancel:
		if !e.abandonFrame(&fate) {
			return <-done
		}
		w.reset()
		return ctx.Err()
	}
}

// Product is one encoded frame from either path; exactly one field is
// set. Core carries the specialized SledZig result, Generic the registry
// codec's rendered frame.
type Product struct {
	Core    *core.EncodeResult
	Generic *codec.Encoded
}

func (w *workerState) decodeFrame(j *job) (*codec.Decoded, error) {
	var res *codec.Decoded
	cdc := w.cdc
	cdc.SetTrace(j.tr)
	err := w.guarded(j.ctx, func() error {
		w.e.strike(j, true)
		dec, derr := cdc.Decode(j.waveform)
		if derr != nil {
			return derr
		}
		res = dec
		return nil
	})
	// On abandonment (timeout/cancel) reset already replaced w.cdc and the
	// stuck goroutine still owns cdc — leave its trace alone.
	if cdc == w.cdc {
		cdc.SetTrace(nil)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (w *workerState) encodeFrame(j *job) (*Product, error) {
	if w.enc == nil {
		return w.encodeGeneric(j)
	}
	var res *core.EncodeResult
	enc := w.enc
	enc.Trace = j.tr
	err := w.guarded(j.ctx, func() error {
		w.e.strike(j, false)
		var eerr error
		res, eerr = enc.Encode(j.payload)
		return eerr
	})
	if err != nil {
		return nil, err
	}
	return &Product{Core: res}, nil
}

func (w *workerState) encodeGeneric(j *job) (*Product, error) {
	var out *codec.Encoded
	cdc := w.cdc
	cdc.SetTrace(j.tr)
	err := w.guarded(j.ctx, func() error {
		w.e.strike(j, false)
		enc, cerr := cdc.Encode(j.payload)
		if cerr != nil {
			return cerr
		}
		out = enc
		return nil
	})
	if cdc == w.cdc {
		cdc.SetTrace(nil)
	}
	if err != nil {
		return nil, err
	}
	return &Product{Generic: out}, nil
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
		if j.deliverDec != nil {
			pass := decStage.Start()
			res, err := w.decodeFrame(j)
			e.finishFrame(m.decodeFrameLatency, j, err)
			if err != nil {
				pass.End(0, err)
				m.decodeFailures.Inc()
				j.deliverDec(j.idx, nil, err)
			} else {
				pass.End(len(res.Payload), nil)
				j.deliverDec(j.idx, res, nil)
			}
			if j.done != nil {
				j.done.Done()
			}
			e.frameDone(j, err)
			continue
		}
		pass := encStage.Start()
		res, err := w.encodeFrame(j)
		e.finishFrame(m.encodeFrameLatency, j, err)
		pass.End(len(j.payload), err)
		if err != nil {
			m.failures.Inc()
			j.deliver(j.idx, nil, err)
		} else {
			j.deliver(j.idx, res, nil)
		}
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

// EncodeOutcome is one frame's result in a per-frame batch: exactly one of
// Result and Err is set.
type EncodeOutcome struct {
	Result *Product
	Err    error
}

// EncodeEach encodes every payload across the pool and returns one outcome
// per input, in input order. A failing frame — invalid payload, panic
// converted by the worker, deadline — fails only its own slot; siblings
// complete normally. A cancelled context fails the unsubmitted and
// undecoded remainder with the context error but still waits for frames
// already on a worker.
func (e *Engine) EncodeEach(ctx context.Context, payloads [][]byte) []EncodeOutcome {
	m := metrics()
	start := e.now()
	outcomes := make([]EncodeOutcome, len(payloads))
	var done sync.WaitGroup
	deliver := func(idx int, res *Product, err error) {
		outcomes[idx] = EncodeOutcome{Result: res, Err: err}
	}
	for i, p := range payloads {
		done.Add(1)
		j := &job{payload: p, idx: i, ctx: ctx, deliver: deliver, done: &done, tr: trace.Start("encode")}
		j.tr.Enqueued()
		if err := e.submit(ctx, j); err != nil {
			j.tr.Finish(err)
			done.Done()
			for k := i; k < len(payloads); k++ {
				outcomes[k] = EncodeOutcome{Err: err}
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

// EncodeBatch encodes every payload across the pool and returns the
// results in input order. The first error (by input order) is returned
// after all submitted work has drained; a cancelled context abandons the
// unsubmitted remainder but still waits for in-flight frames. Callers that
// need sibling results to survive one bad frame use EncodeEach.
func (e *Engine) EncodeBatch(ctx context.Context, payloads [][]byte) ([]*Product, error) {
	outcomes := e.EncodeEach(ctx, payloads)
	results := make([]*Product, len(outcomes))
	for i, o := range outcomes {
		if o.Err != nil {
			return nil, fmt.Errorf("engine: payload %d: %w", i, o.Err)
		}
		results[i] = o.Result
	}
	return results, nil
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
