package mac

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"sledzig/internal/obs"
)

func traceSimConfig(sink obs.Sink) Config {
	return Config{
		DWZ: 10, DZ: 1, DutyRatio: 0.5, Profile: normalProfile(),
		Duration: 0.5, Seed: 7, Trace: sink,
	}
}

type errAfterWriter struct {
	n   int
	err error
}

func (w *errAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

// TestCSVTracerErrorPropagation traces a run into an obs CSV sink whose
// writer fails on its second write, while the run is still emitting: the
// error must surface from Flush, and stick.
func TestCSVTracerErrorPropagation(t *testing.T) {
	wantErr := errors.New("device full")
	sink := obs.NewCSVSink(&errAfterWriter{n: 1, err: wantErr})
	if _, err := Run(traceSimConfig(sink)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); !errors.Is(err, wantErr) {
		t.Fatalf("flush error %v, want %v", err, wantErr)
	}
	if err := sink.Flush(); !errors.Is(err, wantErr) {
		t.Fatalf("flush error not sticky: %v", err)
	}
}

// TestJSONLTracer traces a run into an obs JSONL sink: one obs.Event
// object per line, source "mac".
func TestJSONLTracer(t *testing.T) {
	var b strings.Builder
	sink := obs.NewJSONLSink(&b)
	if _, err := Run(traceSimConfig(sink)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("only %d trace lines", len(lines))
	}
	seen := map[string]bool{}
	for _, line := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if ev.Source != "mac" {
			t.Fatalf("source %q", ev.Source)
		}
		seen[ev.Kind] = true
	}
	for _, kind := range []string{TraceWiFiStart, TraceZBStart} {
		if !seen[kind] {
			t.Errorf("no %q event in JSONL trace (kinds: %v)", kind, seen)
		}
	}
}

// TestBusTracerAndCounters runs the simulator with a registry installed
// and checks that the per-run sink, the per-kind counters and the event
// bus all see the same events.
func TestBusTracerAndCounters(t *testing.T) {
	reg := obs.New()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	ring := obs.NewRingSink(1 << 16)
	defer reg.Bus().Subscribe(ring)()

	var direct []obs.Event
	res, err := Run(traceSimConfig(obs.SinkFunc(func(ev obs.Event) { direct = append(direct, ev) })))
	if err != nil {
		t.Fatal(err)
	}
	if res.ZigBeeSent == 0 {
		t.Fatal("simulation sent nothing")
	}

	counts := map[string]int{}
	for _, ev := range direct {
		counts[ev.Kind]++
	}
	snap := reg.Snapshot()
	for kind, n := range counts {
		if got := snap.Counters["mac.events."+kind]; got != uint64(n) {
			t.Errorf("counter mac.events.%s = %d, sink saw %d", kind, got, n)
		}
	}
	bus := ring.Events()
	if len(bus) != len(direct) {
		t.Fatalf("bus saw %d events, sink saw %d", len(bus), len(direct))
	}
	for i, ev := range bus {
		if ev != direct[i] {
			t.Fatalf("event %d: bus %v, sink %v", i, ev, direct[i])
		}
	}
	// Run stage timer and gauges recorded.
	if snap.Counters["mac.sim.run.calls"] == 0 {
		t.Error("mac.sim.run stage not timed")
	}
	if snap.Gauges["mac.sim.last_zb_throughput_bps"] == 0 {
		t.Error("throughput gauge not set")
	}
}
