package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sledzig/internal/codec"
)

// TestSubmitQueueWaitSheds: with MaxQueueWait set, a submission that
// cannot enqueue within the window sheds with a typed *Overload instead of
// blocking until the caller's context dies.
func TestSubmitQueueWaitSheds(t *testing.T) {
	leakCheck(t)
	cfg := testConfig(1)
	cfg.Queue = 1
	cfg.MaxQueueWait = 20 * time.Millisecond
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	entered, release := stallHook(t)

	ctx := context.Background()
	payloads := testPayloads(3)
	var done sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[int]error{}
	deliver := func(idx int, r result, err error) {
		mu.Lock()
		outcomes[idx] = err
		mu.Unlock()
	}
	submit := func(i int) error {
		done.Add(1)
		j := &job{payload: payloads[i], idx: i, ctx: ctx, deliver: deliver, done: &done}
		err := e.submit(ctx, j)
		if err != nil {
			done.Done()
		}
		return err
	}

	if err := submit(0); err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	<-entered // frame 0 wedged on the worker
	if err := submit(1); err != nil {
		t.Fatalf("submit 1 (queued): %v", err)
	}
	start := time.Now()
	err = submit(2)
	waited := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit 2: err = %v, want ErrOverloaded", err)
	}
	var ov *Overload
	if !errors.As(err, &ov) {
		t.Fatalf("submit 2: err %v is not an *Overload", err)
	}
	if ov.Reason != OverloadQueueWait {
		t.Fatalf("reason = %q, want %q", ov.Reason, OverloadQueueWait)
	}
	if ov.QueueDepth != 1 {
		t.Fatalf("queue depth = %d, want 1", ov.QueueDepth)
	}
	if waited > 5*time.Second {
		t.Fatalf("shed took %v — submission stalled", waited)
	}
	if got := e.sheds.counts().QueueWait; got != 1 {
		t.Fatalf("shed tally queue_wait = %d, want 1", got)
	}

	close(release)
	done.Wait()
	for idx, err := range outcomes {
		if err != nil {
			t.Fatalf("frame %d: %v", idx, err)
		}
	}
}

// TestSubmitInflightCapSheds: MaxInflight rejects immediately — no
// queue-wait sleep — once that many frames are admitted and unfinished.
func TestSubmitInflightCapSheds(t *testing.T) {
	leakCheck(t)
	cfg := testConfig(1)
	cfg.Queue = 4
	cfg.MaxInflight = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	entered, release := stallHook(t)

	ctx := context.Background()
	outs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		o := e.EncodeEach(ctx, testPayloads(1))
		outs <- o[0].Err
	}()
	<-entered // one frame admitted and wedged

	o := e.EncodeEach(ctx, testPayloads(1))
	var ov *Overload
	if !errors.As(o[0].Err, &ov) || ov.Reason != OverloadInflight {
		t.Fatalf("second frame: err = %v, want *Overload(inflight)", o[0].Err)
	}
	if got := e.sheds.counts().Inflight; got == 0 {
		t.Fatal("inflight shed not tallied")
	}

	close(release)
	wg.Wait()
	if err := <-outs; err != nil {
		t.Fatalf("first frame: %v", err)
	}
}

// TestAbandonedWorkerCapSheds: after MaxAbandoned frames have been
// abandoned to their timeouts (their goroutines still running), further
// frames shed with *Overload(abandoned_workers) instead of spawning more;
// once the stuck goroutines finish, the tally returns to zero.
func TestAbandonedWorkerCapSheds(t *testing.T) {
	leakCheck(t)
	cfg := testConfig(1)
	cfg.Queue = 4
	cfg.FrameTimeout = 30 * time.Millisecond
	cfg.MaxAbandoned = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	_, release := stallHook(t)

	outs := e.EncodeEach(context.Background(), testPayloads(3))
	timeouts, overloads := 0, 0
	for _, o := range outs {
		switch {
		case errors.Is(o.Err, ErrFrameTimeout):
			timeouts++
		case errors.Is(o.Err, ErrOverloaded):
			overloads++
			var ov *Overload
			if !errors.As(o.Err, &ov) || ov.Reason != OverloadAbandoned {
				t.Fatalf("overload reason: %v", o.Err)
			}
		default:
			t.Fatalf("unexpected outcome: %v", o.Err)
		}
	}
	if timeouts != 2 || overloads != 1 {
		t.Fatalf("timeouts=%d overloads=%d, want 2 and 1", timeouts, overloads)
	}
	if got := e.abandoned.Load(); got != 2 {
		t.Fatalf("abandoned tally = %d, want 2", got)
	}
	if e.Health() != Degraded {
		t.Fatalf("health with abandoned workers = %s, want degraded", e.Health())
	}

	close(release)
	waitFor(t, "abandoned workers to retire", func() bool { return e.abandoned.Load() == 0 })
}

// TestSubmitBlockingContractPreserved: without MaxQueueWait/MaxInflight
// the original backpressure semantics hold — a submission blocks until
// capacity frees rather than shedding.
func TestSubmitBlockingContractPreserved(t *testing.T) {
	leakCheck(t)
	cfg := testConfig(1)
	cfg.Queue = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	entered, release := stallHook(t)

	var outs []Outcome[*codec.Frame]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// 3 frames through a 1-worker/1-slot engine: the third submit must
		// block (not shed) until the wedge lifts.
		outs = e.EncodeEach(context.Background(), testPayloads(3))
	}()
	<-entered
	time.Sleep(50 * time.Millisecond) // give the third submit time to park
	close(release)
	wg.Wait()
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("frame %d: %v — blocking contract should never shed", i, o.Err)
		}
	}
}

// TestOverloadErrorShape: the Overload error formats its detail and
// unwraps to ErrOverloaded.
func TestOverloadErrorShape(t *testing.T) {
	ov := &Overload{Reason: OverloadQueueWait, QueueDepth: 7, Inflight: 9, Wait: 20 * time.Millisecond}
	if !errors.Is(ov, ErrOverloaded) {
		t.Fatal("Overload must unwrap to ErrOverloaded")
	}
	msg := ov.Error()
	for _, want := range []string{"queue_wait", "20ms", "7", "9"} {
		if !containsStr(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
