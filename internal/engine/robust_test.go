package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// leakCheck records the goroutine count and, at cleanup, waits for it to
// settle back. Engine goroutines exit on Close; anything still alive after
// the grace period is a leak.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d > %d at start\n%s", runtime.NumGoroutine(), base, buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestStreamCancelExitsPromptly cancels an encode stream whose producer
// never closes its channel: the output must still close and no goroutine
// may outlive the engine.
func TestStreamCancelExitsPromptly(t *testing.T) {
	leakCheck(t)
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan []byte) // never closed by the producer
	payloads := testPayloads(4)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			case in <- payloads[i%len(payloads)]:
			}
		}
	}()
	out := e.Stream(ctx, in)
	// Take a couple of results, then cancel mid-flight.
	for i := 0; i < 2; i++ {
		if _, ok := <-out; !ok {
			t.Fatal("stream closed before cancellation")
		}
	}
	cancel()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				return // closed promptly — success
			}
		case <-deadline:
			t.Fatal("stream did not close after cancellation")
		}
	}
}

// TestDecodeStreamCancelUnderFullBackpressure cancels a decode stream
// whose consumer never reads a single result: every queue in the pipeline
// is saturated, and cancellation must still unwind producer, feeder and
// workers without deadlock.
func TestDecodeStreamCancelUnderFullBackpressure(t *testing.T) {
	leakCheck(t)
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	_, waves := testWaveforms(t, e, 2)

	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan []complex128)
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			case in <- waves[i%len(waves)]:
			}
		}
	}()
	out := e.DecodeStream(ctx, in)
	// Let the queues fill: nobody reads out.
	time.Sleep(200 * time.Millisecond)
	cancel()

	select {
	case <-producerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("producer still blocked after cancellation")
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("decode stream did not close after cancellation")
		}
	}
}

// TestBatchCancellationFailsQueuedFramesPromptly cancels a large decode
// batch mid-flight on a single worker: the batch must return the context
// error (queued frames fail without being decoded) and the engine must
// stay serviceable.
func TestBatchCancellationFailsQueuedFramesPromptly(t *testing.T) {
	leakCheck(t)
	e, err := New(testConfig(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads, waves := testWaveforms(t, e, 2)

	// Far more frames than one worker decodes in the 20 ms before the
	// cancel, so the cancellation lands mid-batch on a fast host too.
	big := make([][]complex128, 2000)
	for i := range big {
		big[i] = waves[i%len(waves)]
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	outcomes := e.DecodeEach(ctx, big)
	cancelled := 0
	for _, o := range outcomes {
		if errors.Is(o.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Skip("batch finished before cancellation landed; timing too fast to observe")
	}
	// The engine must still decode cleanly after the cancelled batch.
	res, err := e.DecodeBatch(context.Background(), waves)
	if err != nil {
		t.Fatalf("engine unusable after cancelled batch: %v", err)
	}
	if string(res[0].Payload) != string(payloads[0]) {
		t.Fatal("post-cancellation decode returned wrong payload")
	}
}

// TestWorkerPanicFailsOnlyItsFrame injects a panic into exactly one frame
// of a batch: that frame must fail with ErrFramePanic, every sibling must
// decode, and the pool must survive for the next batch.
func TestWorkerPanicFailsOnlyItsFrame(t *testing.T) {
	leakCheck(t)
	const victim = 3
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads, waves := testWaveforms(t, e, 8)

	testFrameHook = func(j *job) {
		if j.idx == victim {
			panic("injected frame panic")
		}
	}
	defer func() { testFrameHook = nil }()

	outcomes := e.DecodeEach(context.Background(), waves)
	for i, o := range outcomes {
		if i == victim {
			if !errors.Is(o.Err, ErrFramePanic) {
				t.Fatalf("victim frame: got %v, want ErrFramePanic", o.Err)
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("sibling frame %d failed: %v", i, o.Err)
		}
		if string(o.Result.Payload) != string(payloads[i]) {
			t.Fatalf("sibling frame %d decoded wrong payload", i)
		}
	}
	// Encode path gets the same guarantee.
	encOutcomes := e.EncodeEach(context.Background(), payloads)
	for i, o := range encOutcomes {
		if i == victim {
			if !errors.Is(o.Err, ErrFramePanic) {
				t.Fatalf("encode victim: got %v, want ErrFramePanic", o.Err)
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("encode sibling %d failed: %v", i, o.Err)
		}
	}
}

// TestFrameTimeoutAbandonsStuckFrame stalls one frame well past the
// configured deadline: it must fail with ErrFrameTimeout while siblings
// decode, and the worker must continue on fresh state.
func TestFrameTimeoutAbandonsStuckFrame(t *testing.T) {
	leakCheck(t)
	const victim = 2
	release := make(chan struct{})
	testFrameHook = func(j *job) {
		if j.idx == victim && j.decode {
			<-release
		}
	}
	defer func() { testFrameHook = nil }()

	cfg := testConfig(2)
	cfg.FrameTimeout = 150 * time.Millisecond
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads, waves := testWaveforms(t, e, 6)

	outcomes := e.DecodeEach(context.Background(), waves)
	close(release) // let the abandoned goroutine finish before leak check
	for i, o := range outcomes {
		if i == victim {
			if !errors.Is(o.Err, ErrFrameTimeout) {
				t.Fatalf("stuck frame: got %v, want ErrFrameTimeout", o.Err)
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("sibling frame %d failed: %v", i, o.Err)
		}
		if string(o.Result.Payload) != string(payloads[i]) {
			t.Fatalf("sibling frame %d decoded wrong payload", i)
		}
	}
}
