package engine

import (
	"context"
	"fmt"
	"sync"

	"sledzig/internal/core"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

// DecodeResult is one demodulated and payload-stripped frame. Every slice
// is freshly allocated per frame — the worker's pooled receive buffers
// never leak into results, so callers may retain them indefinitely.
// Generic codec backends fill Payload, Channel and Codec only.
type DecodeResult struct {
	// Payload is the recovered original payload.
	Payload []byte
	// Channel is the protected ZigBee channel detected from the
	// constellation (configured, for fixed-channel codec backends).
	Channel core.ZigBeeChannel
	// Codec names the backend that decoded the frame.
	Codec string
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

// decoderState is the per-worker receive pipeline: a receiver whose
// RxResult buffers are recycled across frames, and the stripping decoder.
type decoderState struct {
	rxr wifi.Receiver
	dec core.Decoder
	rx  wifi.RxResult
}

func (e *Engine) newDecoderState() *decoderState {
	seed := e.cfg.Seed
	if seed == 0 {
		seed = wifi.DefaultScramblerSeed
	}
	return &decoderState{
		rxr: wifi.Receiver{Seed: seed, Convention: e.cfg.Convention, Resync: e.cfg.Resilient},
		dec: core.Decoder{Convention: e.cfg.Convention},
	}
}

// decodeOne demodulates one waveform with the worker's recycled buffers
// and builds a self-contained result.
func (d *decoderState) decodeOne(waveform []complex128) (*DecodeResult, error) {
	if err := d.rxr.ReceiveInto(waveform, &d.rx); err != nil {
		return nil, err
	}
	payload, ch, err := d.dec.DecodeAuto(&d.rx)
	if err != nil {
		return nil, err
	}
	res := &DecodeResult{
		Payload:       payload,
		Channel:       ch,
		Codec:         codecSledZig,
		Mode:          d.rx.Mode,
		ScramblerSeed: d.rxr.Seed,
		NumSymbols:    len(d.rx.DataPoints),
		SymbolEVM:     wifi.SymbolEVM(d.rx.Mode.Modulation, d.rx.DataPoints),
	}
	// The extra-bit count follows from the detected plan's layout; both the
	// plan and its per-length layouts are cached process-wide.
	if plan, perr := core.CachedPlan(d.dec.Convention, d.rx.Mode, ch); perr == nil {
		if layout, lerr := plan.FrameLayout(len(d.rx.DataPoints)); lerr == nil {
			res.ExtraBits = len(layout.Positions)
		}
	}
	return res, nil
}

// DecodeOutcome is one frame's result in a per-frame batch: exactly one of
// Result and Err is set.
type DecodeOutcome struct {
	Result *DecodeResult
	Err    error
}

// DecodeEach decodes every waveform across the pool and returns one
// outcome per input, in input order. A hostile waveform — truncated, bit
// garbage, one that panics or stalls the decoder — fails only its own
// slot; siblings decode normally. A cancelled context fails the remainder
// with the context error but still waits for frames already on a worker.
func (e *Engine) DecodeEach(ctx context.Context, waveforms [][]complex128) []DecodeOutcome {
	m := metrics()
	start := e.now()
	outcomes := make([]DecodeOutcome, len(waveforms))
	var done sync.WaitGroup
	deliver := func(idx int, res *DecodeResult, err error) {
		outcomes[idx] = DecodeOutcome{Result: res, Err: err}
	}
	for i, w := range waveforms {
		done.Add(1)
		j := &job{waveform: w, idx: i, ctx: ctx, deliverDec: deliver, done: &done, tr: trace.Start("decode")}
		j.tr.Enqueued()
		if err := e.submit(ctx, j); err != nil {
			j.tr.Finish(err)
			done.Done()
			for k := i; k < len(waveforms); k++ {
				outcomes[k] = DecodeOutcome{Err: err}
			}
			break
		}
	}
	done.Wait()
	m.decodeBatchLatency.ObserveDuration(e.now().Sub(start))
	m.decodeBatches.Inc()
	ok := 0
	for _, o := range outcomes {
		if o.Err == nil {
			ok++
		}
	}
	m.decodeFrames.Add(uint64(ok))
	return outcomes
}

// DecodeBatch decodes every waveform across the pool and returns the
// results in input order — byte-identical to a sequential receiver with the
// same configuration. The first error (by input order) is returned after
// all submitted work has drained; a cancelled context abandons the
// unsubmitted remainder but still waits for in-flight frames. Callers that
// need sibling results to survive one bad frame use DecodeEach.
func (e *Engine) DecodeBatch(ctx context.Context, waveforms [][]complex128) ([]*DecodeResult, error) {
	outcomes := e.DecodeEach(ctx, waveforms)
	results := make([]*DecodeResult, len(outcomes))
	for i, o := range outcomes {
		if o.Err != nil {
			return nil, fmt.Errorf("engine: waveform %d: %w", i, o.Err)
		}
		results[i] = o.Result
	}
	return results, nil
}

// DecodeStreamResult is one streamed decode outcome. Index is the
// zero-based position of the waveform in the input stream.
type DecodeStreamResult struct {
	Index  int
	Result *DecodeResult
	Err    error
}

// DecodeStream decodes waveforms read from in across the pool, delivering
// results on the returned channel (buffered to Config.Queue). Results carry
// the input index; with more than one worker the delivery order is
// unspecified. The output channel is closed once every accepted input has
// been delivered, after in closes or ctx is cancelled. Both queues are
// bounded, so a stalled consumer backpressures the producer.
func (e *Engine) DecodeStream(ctx context.Context, in <-chan []complex128) <-chan DecodeStreamResult {
	out := make(chan DecodeStreamResult, e.cfg.Queue)
	go func() {
		defer close(out)
		var inflight sync.WaitGroup
		deliver := func(idx int, res *DecodeResult, err error) {
			select {
			case out <- DecodeStreamResult{Index: idx, Result: res, Err: err}:
			case <-ctx.Done():
			}
			inflight.Done()
		}
		idx := 0
	feed:
		for {
			select {
			case <-ctx.Done():
				break feed
			case w, ok := <-in:
				if !ok {
					break feed
				}
				inflight.Add(1)
				j := &job{waveform: w, idx: idx, ctx: ctx, deliverDec: deliver, tr: trace.Start("decode")}
				j.tr.Enqueued()
				if err := e.submit(ctx, j); err != nil {
					j.tr.Finish(err)
					inflight.Done()
					select {
					case out <- DecodeStreamResult{Index: idx, Err: err}:
					case <-ctx.Done():
					}
					break feed
				}
				idx++
			}
		}
		inflight.Wait()
	}()
	return out
}
