package trace

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sledzig/internal/obs"
)

// stage returns a metrics-off stage named prefix.name: the form the
// pipeline packages build when no registry is installed.
func stage(prefix, name string) *obs.Stage {
	var r *obs.Registry
	return r.Scope(prefix).Stage(name)
}

var (
	rxSignal   = stage("wifi.rx", "signal")
	rxEqualize = stage("wifi.rx", "equalize")
	rxDemap    = stage("wifi.rx", "demap")
	rxViterbi  = stage("wifi.rx", "viterbi")
)

func TestNilTracerAndFrameAreNoOps(t *testing.T) {
	var tr *Tracer
	f := tr.Start("encode")
	if f != nil {
		t.Fatalf("nil tracer Start = %v, want nil frame", f)
	}
	// Every method on the nil frame must be callable.
	f.Enqueued()
	f.Dequeued(3)
	m := f.Begin(rxViterbi)
	m.End(0, nil)
	f.Finish(errors.New("boom"))
	if got := f.TraceID(); got != 0 {
		t.Fatalf("nil frame TraceID = %d, want 0", got)
	}
	if tr.Flight() != nil || tr.Retained() != nil {
		t.Fatal("nil tracer rings should be empty")
	}
	tr.AddExporter(NewJSONLExporter(nil)) // must not panic
	if err := tr.WriteDump(nil, "x"); !errors.Is(err, ErrNoTracer) {
		t.Fatalf("nil WriteDump err = %v, want ErrNoTracer", err)
	}
}

// TestBeginFeedsStageAndSpan checks the one-probe contract: End closes
// the stage's metric pass and the frame span, named after the stage,
// together; on an untraced frame the metric pass still records.
func TestBeginFeedsStageAndSpan(t *testing.T) {
	reg := obs.New()
	st := reg.Scope("wifi.rx").Stage("viterbi")
	tr := New(Config{SampleEvery: 1})
	f := tr.Start("decode")
	f.Begin(st).End(100, nil)
	f.Begin(st).End(7, errors.New("viterbi failed"))
	f.Finish(nil)
	var untraced *Frame
	untraced.Begin(st).End(50, nil)

	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"wifi.rx.viterbi.calls":  3,
		"wifi.rx.viterbi.errors": 1,
		"wifi.rx.viterbi.bytes":  150, // a failed pass adds no bytes
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h := snap.Histograms["wifi.rx.viterbi.seconds"]; h.Count != 3 {
		t.Errorf("seconds count %d, want 3", h.Count)
	}
	spans := tr.Retained()[0].Spans
	if len(spans) != 1 || spans[0].Name != "wifi.rx.viterbi" || spans[0].Count != 2 {
		t.Errorf("spans = %+v, want one wifi.rx.viterbi span of 2 occurrences", spans)
	}
}

func TestFrameLifecycleAndHeadSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	f := tr.Start("decode")
	if f == nil {
		t.Fatal("Start returned nil on a live tracer")
	}
	f.Enqueued()
	f.Dequeued(2)
	m := f.Begin(rxSignal)
	m.End(0, nil)
	f.Finish(nil)

	flight := tr.Flight()
	if len(flight) != 1 {
		t.Fatalf("flight holds %d frames, want 1", len(flight))
	}
	retained := tr.Retained()
	if len(retained) != 1 {
		t.Fatalf("retained holds %d frames, want 1 (SampleEvery=1)", len(retained))
	}
	s := retained[0]
	if s.Kind != "decode" {
		t.Errorf("Kind = %q, want decode", s.Kind)
	}
	if s.Worker != 2 {
		t.Errorf("Worker = %d, want 2", s.Worker)
	}
	if s.Retained != "head" {
		t.Errorf("Retained = %q, want head", s.Retained)
	}
	if s.Error != "" {
		t.Errorf("Error = %q, want empty", s.Error)
	}
	if s.QueueWaitNS < 0 || s.ServiceNS <= 0 || s.TotalNS < s.ServiceNS {
		t.Errorf("timing inconsistent: queue=%d service=%d total=%d", s.QueueWaitNS, s.ServiceNS, s.TotalNS)
	}
	if len(s.Spans) != 1 || s.Spans[0].Name != "wifi.rx.signal" || s.Spans[0].Count != 1 {
		t.Errorf("spans = %+v, want one wifi.rx.signal occurrence", s.Spans)
	}
	if len(s.TraceID) != 16 {
		t.Errorf("TraceID = %q, want 16 hex chars", s.TraceID)
	}
}

func TestTailCaptureOnErrorAndSlow(t *testing.T) {
	tr := New(Config{LatencyThreshold: time.Nanosecond})
	f := tr.Start("encode")
	f.Finish(errors.New("viterbi exploded"))
	f2 := tr.Start("encode")
	f2.Finish(nil) // any nonzero latency exceeds 1ns

	retained := tr.Retained()
	if len(retained) != 2 {
		t.Fatalf("retained %d frames, want 2", len(retained))
	}
	if retained[0].Retained != "error" || retained[0].Error != "viterbi exploded" {
		t.Errorf("first frame retained=%q error=%q, want error retention", retained[0].Retained, retained[0].Error)
	}
	if retained[1].Retained != "slow" {
		t.Errorf("second frame retained=%q, want slow", retained[1].Retained)
	}
}

func TestUnremarkableFrameStaysFlightOnly(t *testing.T) {
	tr := New(Config{SampleEvery: 1000})
	f := tr.Start("encode") // id 1, not a multiple of 1000
	f.Finish(nil)
	if n := len(tr.Flight()); n != 1 {
		t.Fatalf("flight holds %d, want 1", n)
	}
	if n := len(tr.Retained()); n != 0 {
		t.Fatalf("retained holds %d, want 0", n)
	}
}

func TestSpanAccumulation(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	f := tr.Start("decode")
	for i := 0; i < 3; i++ {
		m := f.Begin(rxEqualize)
		m.End(0, nil)
	}
	f.Finish(nil)
	s := tr.Retained()[0]
	if len(s.Spans) != 1 {
		t.Fatalf("spans = %d, want 1 accumulated", len(s.Spans))
	}
	if s.Spans[0].Count != 3 {
		t.Errorf("Count = %d, want 3", s.Spans[0].Count)
	}
	if s.Spans[0].DurNS < 0 || s.Spans[0].EndNS < s.Spans[0].StartNS {
		t.Errorf("span timing inconsistent: %+v", s.Spans[0])
	}
}

func TestLateWritesAfterFinishAreDropped(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	f := tr.Start("decode")
	m := f.Begin(rxViterbi)
	f.Finish(nil)
	m.End(0, nil) // abandoned-goroutine write: dropped
	f.Begin(rxSignal).End(0, nil)
	f.Finish(errors.New("late")) // idempotent: first Finish won
	if n := len(tr.Flight()); n != 1 {
		t.Fatalf("flight holds %d, want 1 (Finish must be idempotent)", n)
	}
	s := tr.Retained()[0]
	if s.Error != "" {
		t.Errorf("late Finish overwrote outcome: %q", s.Error)
	}
	if len(s.Spans) != 1 || s.Spans[0].Count != 0 {
		t.Errorf("late span writes leaked into snapshot: %+v", s.Spans)
	}
}

func TestSpanCapDropsOverflow(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	f := tr.Start("decode")
	for i := 0; i < maxFrameSpans+8; i++ {
		m := f.Begin(stage("stage", fmt.Sprintf("s%02d", i)))
		m.End(0, nil)
	}
	f.Finish(nil)
	if n := len(tr.Retained()[0].Spans); n != maxFrameSpans {
		t.Fatalf("snapshot has %d spans, want cap %d", n, maxFrameSpans)
	}
}

func TestFlightRingWrapsAndCounts(t *testing.T) {
	tr := New(Config{FlightSize: 4, RetainedSize: 2, SampleEvery: 1})
	for i := 0; i < 10; i++ {
		tr.Start("encode").Finish(nil)
	}
	if got := tr.flight.total(); got != 10 {
		t.Errorf("flight total = %d, want 10", got)
	}
	if n := len(tr.Flight()); n != 4 {
		t.Errorf("flight holds %d, want 4", n)
	}
	if n := len(tr.Retained()); n != 2 {
		t.Errorf("retained holds %d, want 2", n)
	}
	// Oldest-first ordering by start time.
	fl := tr.Flight()
	for i := 1; i < len(fl); i++ {
		if fl[i].StartUnixNS < fl[i-1].StartUnixNS {
			t.Fatalf("flight out of order at %d", i)
		}
	}
}

func TestConcurrentFramesAndReaders(t *testing.T) {
	tr := New(Config{FlightSize: 8, SampleEvery: 2, LatencyThreshold: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := tr.Start("decode")
				f.Enqueued()
				f.Dequeued(g)
				m := f.Begin(rxDemap)
				m.End(0, nil)
				var err error
				if i%7 == 0 {
					err = errors.New("synthetic")
				}
				f.Finish(err)
			}
		}(g)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Flight()
				tr.Retained()
			}
		}()
	}
	wg.Wait()
	if got := tr.flight.total(); got != 400 {
		t.Fatalf("flight total = %d, want 400", got)
	}
}

func TestDefaultTracerInstallAndFault(t *testing.T) {
	old := Default()
	defer SetDefault(old)

	SetDefault(nil)
	if f := Start("encode"); f != nil {
		t.Fatal("Start should return nil with tracing off")
	}
	Fault("should be a no-op") // must not panic with no tracer

	dump := t.TempDir() + "/fault.json"
	tr := New(Config{SampleEvery: 1, FaultDumpPath: dump})
	SetDefault(tr)
	Start("decode").Finish(errors.New("frame panic"))
	Fault("frame_panic")
	frames := mustReadDump(t, dump)
	if frames.Reason != "frame_panic" {
		t.Errorf("dump reason = %q, want frame_panic", frames.Reason)
	}
	if len(frames.Frames) != 1 || frames.Frames[0].Error != "frame panic" {
		t.Errorf("dump frames = %+v, want the failed frame", frames.Frames)
	}
}
