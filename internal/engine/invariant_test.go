package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sledzig/internal/codec"
)

// TestAbandonedFrameKeepsItsInstance pins the rule that lets a worker
// abandon a stuck frame: the abandoned goroutine keeps the codec instance
// it started with, and the worker continues on a fresh one. The stalled
// frame is released only once the worker has started a second batch, so
// the two decodes overlap; had they shared an instance, the race detector
// (and usually the payload check) would catch it.
func TestAbandonedFrameKeepsItsInstance(t *testing.T) {
	leakCheck(t)
	const victim = 1
	var secondBatch atomic.Bool
	release := make(chan struct{})
	var releaseOnce sync.Once
	testFrameHook = func(j *job) {
		if !j.decode {
			return
		}
		if !secondBatch.Load() {
			if j.idx == victim {
				<-release
			}
			return
		}
		releaseOnce.Do(func() { close(release) })
	}
	t.Cleanup(func() {
		testFrameHook = nil
		releaseOnce.Do(func() { close(release) })
	})

	cfg := testConfig(1)
	cfg.FrameTimeout = 50 * time.Millisecond
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads, waves := testWaveforms(t, e, 4)

	check := func(batch string, outs []Outcome[*codec.Decoded], skip int) {
		t.Helper()
		for i, o := range outs {
			if i == skip {
				continue
			}
			if o.Err != nil {
				t.Fatalf("%s batch, frame %d: %v", batch, i, o.Err)
			}
			if string(o.Result.Payload) != string(payloads[i]) {
				t.Fatalf("%s batch, frame %d: decoded the wrong payload", batch, i)
			}
		}
	}
	first := e.DecodeEach(context.Background(), waves)
	if !errors.Is(first[victim].Err, ErrFrameTimeout) {
		t.Fatalf("stalled frame: got %v, want ErrFrameTimeout", first[victim].Err)
	}
	check("first", first, victim)
	if e.abandoned.Load() != 1 {
		t.Fatalf("abandoned = %d after the timeout, want 1", e.abandoned.Load())
	}

	// The second batch's first frame releases the victim, which then
	// decodes on its old instance while the worker decodes on the new one.
	secondBatch.Store(true)
	check("second", e.DecodeEach(context.Background(), waves), -1)
	waitFor(t, "the abandoned frame to retire", func() bool { return e.abandoned.Load() == 0 })
}

// TestEveryFrameGetsOneOutcome drives a seeded random mix of Each and
// Stream submissions in both directions through an engine whose frames
// panic or stall past the deadline at chosen indices, some Each calls on
// already-cancelled contexts, then drains it while a second mix is still
// submitting. Every Each slot must hold exactly one of Result and Err, and
// every live-context stream must deliver each index it took exactly once
// and then close. Once the stalls are released nothing stays inflight or
// abandoned, and no goroutine outlives the engine.
func TestEveryFrameGetsOneOutcome(t *testing.T) {
	leakCheck(t)
	rng := rand.New(rand.NewSource(24))
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseStalls := func() { releaseOnce.Do(func() { close(release) }) }
	// fate[decode][idx]: 1 panics, 2 stalls until release.
	var fate [2][8]int
	for d := range fate {
		for i := range fate[d] {
			if r := rng.Intn(6); r < 2 {
				fate[d][i] = r + 1
			}
		}
	}
	cfg := testConfig(2)
	cfg.FrameTimeout = 50 * time.Millisecond
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads, waves := testWaveforms(t, e, len(fate[0]))
	testFrameHook = func(j *job) {
		d := 0
		if j.decode {
			d = 1
		}
		switch fate[d][j.idx%len(fate[d])] {
		case 1:
			panic("injected frame panic")
		case 2:
			<-release
		}
	}
	t.Cleanup(func() {
		testFrameHook = nil
		releaseStalls()
	})

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// runMix starts n random operations and returns a function that waits
	// until every operation has seen its last outcome.
	runMix := func(n int) (wait func()) {
		var wg sync.WaitGroup
		for op := 0; op < n; op++ {
			decode, stream := rng.Intn(2) == 1, rng.Intn(2) == 1
			size := 1 + rng.Intn(len(payloads))
			ctx := context.Background()
			if !stream && rng.Intn(4) == 0 {
				ctx = cancelled
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got []outcomeSeen
				switch {
				case decode && stream:
					in := make(chan []complex128, size)
					for _, w := range waves[:size] {
						in <- w
					}
					close(in)
					for r := range e.DecodeStream(ctx, in) {
						got = append(got, outcomeSeen{r.Index, r.Result != nil, r.Err})
					}
				case stream:
					in := make(chan []byte, size)
					for _, p := range payloads[:size] {
						in <- p
					}
					close(in)
					for r := range e.Stream(ctx, in) {
						got = append(got, outcomeSeen{r.Index, r.Result != nil, r.Err})
					}
				case decode:
					for i, o := range e.DecodeEach(ctx, waves[:size]) {
						got = append(got, outcomeSeen{i, o.Result != nil, o.Err})
					}
				default:
					for i, o := range e.EncodeEach(ctx, payloads[:size]) {
						got = append(got, outcomeSeen{i, o.Result != nil, o.Err})
					}
				}
				checkOutcomes(t, decode, stream, got, size)
			}()
		}
		return wg.Wait
	}

	runMix(12)()
	wait := runMix(12)
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	e.Drain(dctx)
	wait()
	releaseStalls()
	waitFor(t, "inflight and abandoned to reach 0", func() bool {
		return e.inflight.Load() == 0 && e.abandoned.Load() == 0
	})
}

// outcomeSeen is one delivered outcome, reduced to what the invariants read.
type outcomeSeen struct {
	idx    int
	result bool
	err    error
}

// checkOutcomes requires every outcome to carry exactly one of a result and
// an error, and the outcomes to cover the indices 0..k-1 exactly once. An
// Each call covers all size slots. A stream may stop short, but only on a
// failed submission: then its last index carries the admission error.
func checkOutcomes(t *testing.T, decode, stream bool, got []outcomeSeen, size int) {
	t.Helper()
	what := "encode"
	if decode {
		what = "decode"
	}
	if stream {
		what += " stream"
	} else {
		what += " Each"
	}
	seen := make([]bool, len(got))
	for _, o := range got {
		if o.result == (o.err != nil) {
			t.Errorf("%s index %d: result %v with error %v", what, o.idx, o.result, o.err)
		}
		if o.idx < 0 || o.idx >= len(got) || seen[o.idx] {
			t.Errorf("%s: index %d delivered out of range or twice (%d outcomes of %d)", what, o.idx, len(got), size)
			return
		}
		seen[o.idx] = true
	}
	if len(got) == size {
		return
	}
	if !stream || len(got) > size {
		t.Errorf("%s: %d outcomes for %d frames", what, len(got), size)
		return
	}
	for _, o := range got {
		if o.idx == len(got)-1 && !errors.Is(o.err, ErrOverloaded) && !errors.Is(o.err, ErrDraining) && !errors.Is(o.err, ErrClosed) {
			t.Errorf("%s stopped after %d of %d frames without an admission error (last: %v)", what, len(got), size, o.err)
		}
	}
}
