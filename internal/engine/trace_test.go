package engine

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sledzig/internal/obs"
	"sledzig/internal/obs/trace"
)

// installTestTracer installs a retain-everything tracer for the test and
// restores the previous default at cleanup.
func installTestTracer(t *testing.T, cfg trace.Config) *trace.Tracer {
	t.Helper()
	old := trace.Default()
	tr := trace.New(cfg)
	trace.SetDefault(tr)
	t.Cleanup(func() { trace.SetDefault(old) })
	return tr
}

// spanNames flattens a snapshot's spans into a name set.
func spanNames(s *trace.Snapshot) map[string]bool {
	names := make(map[string]bool, len(s.Spans))
	for _, sp := range s.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestEngineTracePropagation runs encode and decode batches through the pool
// with tracing on and verifies every frame's trace made it through the
// worker boundary: queue-wait vs. service attribution, the worker index,
// and the pipeline stage spans recorded by the wifi and core layers.
func TestEngineTracePropagation(t *testing.T) {
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	// Waveforms are rendered before the tracer is installed so the retained
	// ring holds exactly the frames this test submits.
	payloads, waves := testWaveforms(t, e, 6)

	tr := installTestTracer(t, trace.Config{SampleEvery: 1, RetainedSize: 64})

	for i, o := range e.EncodeEach(context.Background(), payloads) {
		if o.Err != nil {
			t.Fatalf("EncodeEach frame %d: %v", i, o.Err)
		}
	}
	for i, o := range e.DecodeEach(context.Background(), waves) {
		if o.Err != nil {
			t.Fatalf("DecodeEach frame %d: %v", i, o.Err)
		}
	}

	snaps := tr.Retained()
	if len(snaps) != 2*len(payloads) {
		t.Fatalf("retained %d traces, want %d", len(snaps), 2*len(payloads))
	}
	var encodes, decodes int
	for _, s := range snaps {
		switch s.Kind {
		case "encode":
			encodes++
		case "decode":
			decodes++
		default:
			t.Fatalf("unexpected trace kind %q", s.Kind)
		}
		if s.TraceID == "" {
			t.Fatal("retained trace has empty trace ID")
		}
		if s.Retained != "head" {
			t.Fatalf("trace %s: retained reason %q, want \"head\"", s.TraceID, s.Retained)
		}
		if s.Worker < 0 || s.Worker >= e.Workers() {
			t.Fatalf("trace %s: worker %d outside pool of %d", s.TraceID, s.Worker, e.Workers())
		}
		if s.QueueWaitNS < 0 {
			t.Fatalf("trace %s: negative queue wait %d", s.TraceID, s.QueueWaitNS)
		}
		if s.ServiceNS <= 0 {
			t.Fatalf("trace %s: service time %d, want > 0", s.TraceID, s.ServiceNS)
		}
		if s.TotalNS < s.ServiceNS {
			t.Fatalf("trace %s: total %d < service %d", s.TraceID, s.TotalNS, s.ServiceNS)
		}
		names := spanNames(s)
		var want []string
		if s.Kind == "encode" {
			// The pool encodes to the codeword; waveform rendering (wifi.tx.*
			// spans) happens in the facade under its own "waveform" root.
			want = []string{"core.encode.layout", "core.encode.scramble", "core.encode.solve", "core.encode.verify"}
		} else {
			want = []string{"wifi.rx.signal", "wifi.rx.equalize", "wifi.rx.viterbi", "wifi.rx.descramble", "core.decode.detect", "core.decode.strip"}
		}
		for _, n := range want {
			if !names[n] {
				t.Fatalf("%s trace %s missing span %q (have %v)", s.Kind, s.TraceID, n, names)
			}
		}
	}
	if encodes != len(payloads) || decodes != len(waves) {
		t.Fatalf("retained %d encodes and %d decodes, want %d each", encodes, decodes, len(payloads))
	}

	// Per-symbol stages accumulate: the equalize span of a multi-symbol
	// frame must carry a count matching its occurrences.
	for _, s := range snaps {
		if s.Kind != "decode" {
			continue
		}
		for _, sp := range s.Spans {
			if sp.Name == "wifi.rx.equalize" && sp.Count < 1 {
				t.Fatalf("wifi.rx.equalize span has count %d", sp.Count)
			}
		}
	}
}

// TestEngineTraceExemplarsLinkLatencyHistograms checks the frame-latency
// histograms observe traced frames with exemplars carrying the trace ID.
func TestEngineTraceExemplarsLinkLatencyHistograms(t *testing.T) {
	installTestTracer(t, trace.Config{SampleEvery: 1})
	oldReg := obs.Default()
	reg := obs.New()
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(oldReg) })

	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads, waves := testWaveforms(t, e, 4)
	if _, err := e.EncodeBatch(context.Background(), payloads); err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	if _, err := e.DecodeBatch(context.Background(), waves); err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}

	snap := reg.Snapshot()
	for _, name := range []string{"engine.frame.encode.latency_seconds", "engine.frame.decode.latency_seconds"} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("histogram %q missing from registry snapshot", name)
		}
		if h.Count == 0 {
			t.Fatalf("histogram %q observed no traced frames", name)
		}
		var exemplars int
		for _, b := range h.Buckets {
			if b.Exemplar != nil {
				if len(b.Exemplar.TraceID) != 16 {
					t.Fatalf("%s exemplar trace ID %q is not 16 hex digits", name, b.Exemplar.TraceID)
				}
				exemplars++
			}
		}
		if exemplars == 0 {
			t.Fatalf("histogram %q has no bucket exemplars", name)
		}
	}
}

// TestEngineTraceFaultDumpOnPanic injects a worker panic into one frame and
// verifies the victim's trace is retained with the error and the flight
// recorder dumped to the configured fault path.
func TestEngineTraceFaultDumpOnPanic(t *testing.T) {
	leakCheck(t)
	dumpPath := filepath.Join(t.TempDir(), "fault.json")
	tr := installTestTracer(t, trace.Config{FaultDumpPath: dumpPath})

	const victim = 3
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	_, waves := testWaveforms(t, e, 6)

	testFrameHook = func(j *job) {
		if j.idx == victim {
			panic("injected frame panic")
		}
	}
	defer func() { testFrameHook = nil }()

	outcomes := e.DecodeEach(context.Background(), waves)
	if !errors.Is(outcomes[victim].Err, ErrFramePanic) {
		t.Fatalf("victim frame: got %v, want ErrFramePanic", outcomes[victim].Err)
	}

	var victimSnap *trace.Snapshot
	for _, s := range tr.Retained() {
		if s.Error != "" {
			victimSnap = s
		}
	}
	if victimSnap == nil {
		t.Fatal("panicked frame was not retained")
	}
	if victimSnap.Retained != "error" {
		t.Fatalf("victim retained reason %q, want \"error\"", victimSnap.Retained)
	}
	if victimSnap.Kind != "decode" {
		t.Fatalf("victim trace kind %q, want decode", victimSnap.Kind)
	}

	raw, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("fault dump not written: %v", err)
	}
	var dump trace.Dump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("fault dump is not valid JSON: %v", err)
	}
	if dump.Reason != "frame_panic" {
		t.Fatalf("dump reason %q, want frame_panic", dump.Reason)
	}
	if len(dump.Frames) == 0 {
		t.Fatal("fault dump carries no frames")
	}
}

// TestEngineTraceFaultDumpOnTimeout stalls one frame past the deadline and
// verifies the timeout is traced and dumped.
func TestEngineTraceFaultDumpOnTimeout(t *testing.T) {
	leakCheck(t)
	dumpPath := filepath.Join(t.TempDir(), "fault.json")
	tr := installTestTracer(t, trace.Config{FaultDumpPath: dumpPath})

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
	_, waves := testWaveforms(t, e, 4)

	outcomes := e.DecodeEach(context.Background(), waves)
	close(release)
	if !errors.Is(outcomes[victim].Err, ErrFrameTimeout) {
		t.Fatalf("stuck frame: got %v, want ErrFrameTimeout", outcomes[victim].Err)
	}

	var timedOut *trace.Snapshot
	for _, s := range tr.Retained() {
		if s.Error != "" {
			timedOut = s
		}
	}
	if timedOut == nil {
		t.Fatal("timed-out frame was not retained")
	}
	if time.Duration(timedOut.TotalNS) < cfg.FrameTimeout {
		t.Fatalf("timed-out frame total %v shorter than the %v deadline", time.Duration(timedOut.TotalNS), cfg.FrameTimeout)
	}

	raw, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("fault dump not written: %v", err)
	}
	var dump trace.Dump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("fault dump is not valid JSON: %v", err)
	}
	if dump.Reason != "frame_timeout" {
		t.Fatalf("dump reason %q, want frame_timeout", dump.Reason)
	}
}

// TestEngineUntracedPathUnchanged runs batches with tracing off and checks
// the pool still works and records nothing — the disabled path must stay a
// nil check.
func TestEngineUntracedPathUnchanged(t *testing.T) {
	if trace.Default() != nil {
		t.Fatal("test requires tracing off at entry")
	}
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads, waves := testWaveforms(t, e, 3)
	res, err := e.DecodeBatch(context.Background(), waves)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	for i, r := range res {
		if string(r.Payload) != string(payloads[i]) {
			t.Fatalf("frame %d decoded wrong payload", i)
		}
	}
}
