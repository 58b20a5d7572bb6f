package sledzig

import (
	"context"
	"fmt"
	"time"

	"sledzig/internal/core"
	"sledzig/internal/engine"
)

// EngineConfig extends Config with the worker-pool geometry.
type EngineConfig struct {
	Config
	// Workers is the number of encoder goroutines; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Queue bounds the internal job queue and each Stream's output
	// channel; <= 0 selects 2*Workers. Full queues block submitters —
	// backpressure instead of unbounded buffering.
	Queue int
	// FrameTimeout bounds each frame's encode or decode wall time. A
	// frame past the deadline fails with ErrFrameDeadline while its batch
	// siblings proceed; the worker abandons the stuck computation and
	// continues on fresh state. Zero disables the deadline.
	FrameTimeout time.Duration

	// MaxQueueWait bounds how long a submission may wait for queue
	// capacity before being shed with ErrOverloaded instead of stalling.
	// Zero keeps the original blocking-backpressure contract.
	MaxQueueWait time.Duration
	// MaxInflight caps admitted-but-unfinished frames across the queue
	// and the workers; beyond it submissions shed with ErrOverloaded.
	// <= 0 disables the cap.
	MaxInflight int
	// MaxAbandonedWorkers caps concurrently timeout-abandoned frame
	// goroutines; at the cap new frames shed with ErrOverloaded rather
	// than risk spawning another. 0 selects 16*Workers; negative disables
	// the cap.
	MaxAbandonedWorkers int
	// Breaker configures the engine's circuit breaker; the zero value
	// disables it.
	Breaker BreakerConfig
}

// BreakerConfig tunes the Engine's circuit breaker; see the field docs on
// the underlying type. The zero value disables the breaker.
type BreakerConfig = engine.BreakerConfig

// Overload is the typed detail behind ErrOverloaded; recover it with
// errors.As to read the shed reason, queue depth, and wait.
type Overload = engine.Overload

// DrainReport is Engine.Drain's account of how in-flight work ended.
type DrainReport = engine.DrainReport

// EngineHealth is the Engine's coarse operating condition: EngineHealthy,
// EngineDegraded, EngineDraining or EngineClosed.
type EngineHealth = engine.HealthState

// EngineHealthReport is one engine's full health snapshot, the same
// document served per engine at /debug/health on the diagnostics mux.
type EngineHealthReport = engine.HealthSnapshot

const (
	EngineHealthy  EngineHealth = engine.Healthy
	EngineDegraded EngineHealth = engine.Degraded
	EngineDraining EngineHealth = engine.Draining
	EngineClosed   EngineHealth = engine.Closed
)

// Engine encodes frames across a pool of workers sharing one cached plan —
// the high-throughput front-end for sweeps, simulators and traffic
// generators. All methods are safe for concurrent use; Close it when done.
//
// With a tracer installed (SetDefaultTracer) every frame submitted through
// any Engine method carries a trace: queue-wait vs. service time across
// the pool, per-stage pipeline spans, and tail capture of failed, slow,
// panicked or timed-out frames in the flight recorder.
type Engine struct {
	e     *engine.Engine
	codec string
}

// NewEngine resolves the config defaults, validates it, and starts the
// worker pool for the selected codec backend. For the default SledZig
// codec the plan comes from the same process-wide cache NewEncoder uses,
// so engines and encoders with identical parameters share constraint
// state; other codecs give each worker its own backend instance.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	cfg.Config = cfg.Config.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Channel.Valid() {
		return nil, fmt.Errorf("%w: config must name a protected channel (CH1..CH4)", ErrInvalidChannel)
	}
	e, err := engine.New(engine.Config{
		Convention:   cfg.Convention,
		Mode:         cfg.mode(),
		Channel:      cfg.Channel,
		Seed:         cfg.ScramblerSeed,
		Workers:      cfg.Workers,
		Queue:        cfg.Queue,
		FrameTimeout: cfg.FrameTimeout,
		MaxQueueWait: cfg.MaxQueueWait,
		MaxInflight:  cfg.MaxInflight,
		MaxAbandoned: cfg.MaxAbandonedWorkers,
		Breaker:      cfg.Breaker,
		Resilient:    cfg.Resilient,
		Codec:        cfg.Codec,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{e: e, codec: cfg.Codec}, nil
}

// frameFromProduct maps an engine product to the public Frame.
func (e *Engine) frameFromProduct(p *engine.Product) *Frame {
	if p == nil {
		return nil
	}
	if p.Generic != nil {
		return &Frame{enc: p.Generic, cdc: e.codec}
	}
	return &Frame{res: p.Core}
}

// Workers returns the resolved worker count.
func (e *Engine) Workers() int { return e.e.Workers() }

// EncodeBatch encodes every payload across the pool and returns the frames
// in input order — byte-identical to calling Encoder.Encode sequentially
// with the same Config. The first failing payload's error (wrapped in the
// public taxonomy) aborts the batch result.
func (e *Engine) EncodeBatch(ctx context.Context, payloads [][]byte) ([]*Frame, error) {
	results, err := e.e.EncodeBatch(ctx, payloads)
	if err != nil {
		return nil, wrapEncodeErr(err)
	}
	frames := make([]*Frame, len(results))
	for i, r := range results {
		frames[i] = e.frameFromProduct(r)
	}
	return frames, nil
}

// EncodeOutcome is one frame's result in a per-frame batch: exactly one of
// Frame and Err is set.
type EncodeOutcome struct {
	Frame *Frame
	Err   error
}

// EncodeEach encodes every payload across the pool and returns one outcome
// per input, in input order. Unlike EncodeBatch, a failing frame — invalid
// payload, a contained worker panic (ErrFramePanicked), a missed deadline
// (ErrFrameDeadline) — fails only its own slot; siblings complete
// normally. This is the hostile-input front-end: one bad frame never costs
// its batch.
func (e *Engine) EncodeEach(ctx context.Context, payloads [][]byte) []EncodeOutcome {
	results := e.e.EncodeEach(ctx, payloads)
	out := make([]EncodeOutcome, len(results))
	for i, r := range results {
		out[i].Err = wrapEncodeErr(r.Err)
		if r.Result != nil {
			out[i].Frame = e.frameFromProduct(r.Result)
		}
	}
	return out
}

// StreamFrame is one streamed encode outcome; Index is the payload's
// zero-based position in the input stream.
type StreamFrame struct {
	Index int
	Frame *Frame
	Err   error
}

// Stream encodes payloads from in as they arrive, delivering results on
// the returned bounded channel. Results carry the input index; with more
// than one worker the delivery order is unspecified. The channel closes
// after in closes (and all work drains) or ctx is cancelled. A stalled
// consumer backpressures the producer through the bounded queues.
func (e *Engine) Stream(ctx context.Context, in <-chan []byte) <-chan StreamFrame {
	src := e.e.Stream(ctx, in)
	out := make(chan StreamFrame)
	go func() {
		defer close(out)
		for r := range src {
			sf := StreamFrame{Index: r.Index, Err: wrapEncodeErr(r.Err)}
			if r.Result != nil {
				sf.Frame = e.frameFromProduct(r.Result)
			}
			select {
			case out <- sf:
			case <-ctx.Done():
				// Keep draining so the inner stream can finish.
			}
		}
	}()
	return out
}

// decodeResultFrom maps an engine decode result to the public type.
func decodeResultFrom(r *engine.DecodeResult) *DecodeResult {
	return &DecodeResult{
		Payload:       r.Payload,
		Channel:       Channel(r.Channel),
		Codec:         r.Codec,
		Modulation:    Modulation(r.Mode.Modulation),
		CodeRate:      CodeRate(r.Mode.CodeRate),
		ScramblerSeed: r.ScramblerSeed,
		ExtraBits:     r.ExtraBits,
		NumSymbols:    r.NumSymbols,
		SymbolEVM:     r.SymbolEVM,
	}
}

// DecodeBatch decodes every PPDU waveform across the pool and returns the
// results in input order — byte-identical to calling Decoder.DecodeDetailed
// sequentially with the same Config. Each worker recycles its demodulation
// buffers internally; the returned results are self-contained and safe to
// retain. The first failing waveform's error (wrapped in the public
// taxonomy) aborts the batch result.
func (e *Engine) DecodeBatch(ctx context.Context, waveforms [][]complex128) ([]*DecodeResult, error) {
	results, err := e.e.DecodeBatch(ctx, waveforms)
	if err != nil {
		return nil, wrapDecodeErr(err)
	}
	out := make([]*DecodeResult, len(results))
	for i, r := range results {
		out[i] = decodeResultFrom(r)
	}
	return out, nil
}

// DecodeOutcome is one frame's result in a per-frame batch: exactly one of
// Result and Err is set.
type DecodeOutcome struct {
	Result *DecodeResult
	Err    error
}

// DecodeEach decodes every waveform across the pool and returns one
// outcome per input, in input order. Unlike DecodeBatch, a hostile
// waveform — truncated, corrupted, one that panics or stalls the decoder —
// fails only its own slot with a taxonomy error; siblings decode normally.
func (e *Engine) DecodeEach(ctx context.Context, waveforms [][]complex128) []DecodeOutcome {
	results := e.e.DecodeEach(ctx, waveforms)
	out := make([]DecodeOutcome, len(results))
	for i, r := range results {
		out[i].Err = wrapDecodeErr(r.Err)
		if r.Result != nil {
			out[i].Result = decodeResultFrom(r.Result)
		}
	}
	return out
}

// DecodeStreamFrame is one streamed decode outcome; Index is the waveform's
// zero-based position in the input stream.
type DecodeStreamFrame struct {
	Index  int
	Result *DecodeResult
	Err    error
}

// DecodeStream decodes waveforms from in as they arrive, delivering results
// on the returned bounded channel. Results carry the input index; with more
// than one worker the delivery order is unspecified. The channel closes
// after in closes (and all work drains) or ctx is cancelled. A stalled
// consumer backpressures the producer through the bounded queues.
func (e *Engine) DecodeStream(ctx context.Context, in <-chan []complex128) <-chan DecodeStreamFrame {
	src := e.e.DecodeStream(ctx, in)
	out := make(chan DecodeStreamFrame)
	go func() {
		defer close(out)
		for r := range src {
			sf := DecodeStreamFrame{Index: r.Index, Err: wrapDecodeErr(r.Err)}
			if r.Result != nil {
				sf.Result = decodeResultFrom(r.Result)
			}
			select {
			case out <- sf:
			case <-ctx.Done():
				// Keep draining so the inner stream can finish.
			}
		}
	}()
	return out
}

// Close stops accepting work, waits for in-flight frames, and releases the
// workers. Safe to call more than once. Shutdown paths that need a
// deadline and per-frame accounting use Drain instead.
func (e *Engine) Close() { e.e.Close() }

// Drain stops admission and flushes in-flight work, bounded by ctx. New
// submissions fail with ErrOverloaded-distinct ErrDraining immediately; if
// every admitted frame completes before ctx expires the drain is clean,
// otherwise still-queued frames are handed back to their callers as
// ErrDraining outcomes. The engine is closed either way; the report counts
// what was flushed, shed, and abandoned. Safe to call concurrently and
// more than once.
func (e *Engine) Drain(ctx context.Context) DrainReport { return e.e.Drain(ctx) }

// Health reports the engine's coarse operating condition — the signal a
// gateway polls to steer load between backends.
func (e *Engine) Health() EngineHealth { return e.e.Health() }

// HealthReport returns the engine's full health snapshot: state, breaker,
// queue depth, inflight and abandoned counts, and per-reason shed totals.
func (e *Engine) HealthReport() EngineHealthReport { return e.e.Report() }

// PlanCacheSize reports how many (convention, mode, channel) plans the
// process-wide cache currently holds — an observability helper for tests
// and diagnostics.
func PlanCacheSize() int { return core.PlanCacheLen() }
