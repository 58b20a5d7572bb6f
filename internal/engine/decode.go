package engine

import (
	"context"
	"fmt"
	"sync"

	"sledzig/internal/codec"
	"sledzig/internal/obs/trace"
)

// DecodeOutcome is one frame's result in a per-frame batch: exactly one of
// Result and Err is set.
type DecodeOutcome struct {
	Result *codec.Decoded
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
	deliver := func(idx int, res *codec.Decoded, err error) {
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
// results in input order — identical to decoding them one after another on
// a single instance of the configured backend. Each result is the one the
// worker's backend built, self-contained and safe to retain. The first
// error (by input order) is returned after all submitted work has drained;
// a cancelled context abandons the unsubmitted remainder but still waits
// for in-flight frames. Callers that need sibling results to survive one
// bad frame use DecodeEach.
func (e *Engine) DecodeBatch(ctx context.Context, waveforms [][]complex128) ([]*codec.Decoded, error) {
	outcomes := e.DecodeEach(ctx, waveforms)
	results := make([]*codec.Decoded, len(outcomes))
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
	Result *codec.Decoded
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
		deliver := func(idx int, res *codec.Decoded, err error) {
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
