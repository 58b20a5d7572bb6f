package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sledzig/internal/codec"
)

// stallHook installs a frame hook that parks every frame on a release
// channel, signalling arrivals on entered. Closing the returned release
// channel lets all current and future frames through.
func stallHook(t *testing.T) (entered chan struct{}, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{}, 64)
	release = make(chan struct{})
	testFrameHook = func(j *job) {
		entered <- struct{}{}
		<-release
	}
	t.Cleanup(func() { testFrameHook = nil })
	return entered, release
}

// TestDrainFlushesCleanly: Drain with in-flight frames and no deadline
// pressure completes them all, reports Clean, and closes the engine.
func TestDrainFlushesCleanly(t *testing.T) {
	leakCheck(t)
	cfg := testConfig(2)
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	entered, release := stallHook(t)

	var outs []Outcome[*codec.Frame]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		outs = e.EncodeEach(context.Background(), testPayloads(2))
	}()
	<-entered
	<-entered // both frames on a worker

	drainDone := make(chan DrainReport, 1)
	go func() { drainDone <- e.Drain(context.Background()) }()
	waitFor(t, "draining state", func() bool { return e.Health() == Draining })
	close(release)
	rep := <-drainDone
	wg.Wait()

	if !rep.Clean || rep.Shed != 0 || rep.Abandoned != 0 {
		t.Fatalf("report = %+v, want clean", rep)
	}
	if rep.Flushed != 2 {
		t.Fatalf("flushed = %d, want 2", rep.Flushed)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("frame %d failed during clean drain: %v", i, o.Err)
		}
	}
	if e.Health() != Closed {
		t.Fatalf("health after drain = %s, want closed", e.Health())
	}
	post := e.EncodeEach(context.Background(), testPayloads(1))
	if !errors.Is(post[0].Err, ErrClosed) {
		t.Fatalf("post-drain submit: err = %v, want ErrClosed", post[0].Err)
	}
}

// TestDrainDeadlineShedsQueued: a drain whose context expires while one
// frame is wedged hands every queued frame back as ErrDraining and reports
// the wedged frame as abandoned. Releasing the wedge afterwards lets the
// engine exit with no goroutine leak.
func TestDrainDeadlineShedsQueued(t *testing.T) {
	leakCheck(t)
	cfg := testConfig(1)
	cfg.Queue = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	entered, release := stallHook(t)

	var outs []Outcome[*codec.Frame]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		outs = e.EncodeEach(context.Background(), testPayloads(4))
	}()
	<-entered // frame 0 wedged on the only worker; 1..3 queued

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep := e.Drain(ctx)
	if rep.Clean {
		t.Fatalf("report = %+v, want dirty", rep)
	}
	if rep.Shed != 3 {
		t.Fatalf("shed = %d, want 3", rep.Shed)
	}
	if rep.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", rep.Abandoned)
	}

	close(release)
	wg.Wait()
	if outs[0].Err != nil {
		t.Fatalf("wedged frame should still complete after release: %v", outs[0].Err)
	}
	for i := 1; i < 4; i++ {
		if !errors.Is(outs[i].Err, ErrDraining) {
			t.Fatalf("queued frame %d: err = %v, want ErrDraining", i, outs[i].Err)
		}
	}
}

// TestDrainWithExpiredContextIdleEngine: an idle engine drains cleanly
// even when the caller's context is already dead — there is nothing to
// wait for, so the deadline must not matter.
func TestDrainWithExpiredContextIdleEngine(t *testing.T) {
	leakCheck(t)
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := e.Drain(ctx)
	if !rep.Clean || rep.Shed != 0 || rep.Abandoned != 0 {
		t.Fatalf("report = %+v, want clean", rep)
	}
}

// TestDoubleDrain: concurrent and repeated Drain calls are safe; exactly
// one performs the shutdown, all return consistent terminal reports.
func TestDoubleDrain(t *testing.T) {
	leakCheck(t)
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if outs := e.EncodeEach(context.Background(), testPayloads(2)); outs[0].Err != nil {
		t.Fatalf("warmup encode: %v", outs[0].Err)
	}
	const n = 4
	reports := make([]DrainReport, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i] = e.Drain(context.Background())
		}(i)
	}
	wg.Wait()
	for i, rep := range reports {
		if !rep.Clean {
			t.Fatalf("drain %d: report = %+v, want clean", i, rep)
		}
	}
	// Drain after drain, and Close after Drain, stay safe.
	if rep := e.Drain(context.Background()); !rep.Clean {
		t.Fatalf("repeat drain: %+v", rep)
	}
	e.Close()
}

// TestDrainMidStream: draining while a stream is feeding terminates the
// stream with typed errors only, and the output channel still closes.
func TestDrainMidStream(t *testing.T) {
	leakCheck(t)
	cfg := testConfig(2)
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan []byte)
	payloads := testPayloads(4)
	go func() {
		defer close(in)
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			case in <- payloads[i%len(payloads)]:
			}
		}
	}()
	out := e.Stream(ctx, in)
	for i := 0; i < 3; i++ {
		if r, ok := <-out; !ok || r.Err != nil {
			t.Fatalf("pre-drain stream result %d: ok=%v err=%v", i, ok, r.Err)
		}
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer dcancel()
	rep := e.Drain(dctx)
	cancel() // stop the producer; the stream sees ErrDraining/ErrClosed
	for r := range out {
		if r.Err != nil && !errors.Is(r.Err, ErrDraining) && !errors.Is(r.Err, ErrClosed) &&
			!errors.Is(r.Err, context.Canceled) {
			t.Fatalf("stream error not typed: %v", r.Err)
		}
	}
	if e.Health() != Closed {
		t.Fatalf("health = %s, want closed (report %+v)", e.Health(), rep)
	}
}

// TestDrainStalledStreamReader: a stream reader that stops reading must not
// hold Drain past its deadline. With the output buffer full, the worker is
// parked delivering a result and frames are still queued, so the drain hits
// its deadline and sheds them; their ErrDraining outcomes reach the reader
// once it resumes.
func TestDrainStalledStreamReader(t *testing.T) {
	leakCheck(t)
	cfg := testConfig(1)
	cfg.Queue = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan []byte)
	payloads := testPayloads(4)
	go func() {
		defer close(in)
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			case in <- payloads[i%len(payloads)]:
			}
		}
	}()
	out := e.Stream(ctx, in)
	waitFor(t, "stalled pipeline", func() bool {
		return len(out) == cap(out) && len(e.jobs) == cap(e.jobs)
	})

	const deadline = 50 * time.Millisecond
	dctx, dcancel := context.WithTimeout(context.Background(), deadline)
	defer dcancel()
	start := time.Now()
	rep := e.Drain(dctx)
	if took := time.Since(start); took > deadline+time.Second {
		t.Fatalf("Drain took %v with a stalled reader, deadline %v", took, deadline)
	}
	if rep.Clean || rep.Shed == 0 {
		t.Fatalf("report = %+v, want queued frames shed", rep)
	}

	var shed uint64
	for r := range out {
		switch {
		case errors.Is(r.Err, ErrDraining):
			shed++
		case r.Err != nil && !errors.Is(r.Err, ErrClosed) && !errors.Is(r.Err, context.Canceled):
			t.Fatalf("stream error not typed: %v", r.Err)
		}
	}
	if shed < rep.Shed {
		t.Fatalf("reader saw %d ErrDraining outcomes, report shed %d", shed, rep.Shed)
	}
	if e.Health() != Closed {
		t.Fatalf("health = %s, want closed (report %+v)", e.Health(), rep)
	}
}
