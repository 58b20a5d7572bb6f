package mac

import (
	"math/rand"
	"sort"
	"testing"

	"sledzig/internal/obs"
)

// nodePhase is where one ZigBee node stands in the life of its current
// packet, as reconstructed from the event stream.
type nodePhase int

const (
	contending nodePhase = iota // backing off / sensing; no frame on air
	onAir                       // data frame sent, outcome pending
	deciding                    // data or ACK lost; retry or drop pending (ACK mode)
)

// checkEventStream replays a run's events through a per-node state
// machine and checks the simulator's conservation laws:
//
//   - event time never runs backwards;
//   - WiFi starts and ends alternate (one PPDU on air at a time);
//   - every data frame put on air gets exactly one outcome before the
//     node sends again, and every packet ends in exactly one terminal
//     event (delivered, CCA drop, or — with ACKs — dropped);
//   - the event counts agree with the Result counters, and the WiFi
//     airtime fraction lies in [0, 1].
func checkEventStream(t *testing.T, name string, cfg Config, events []obs.Event, res *Result) {
	t.Helper()
	fail := func(i int, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: event %d (%v): "+format, append([]any{name, i, events[i]}, args...)...)
	}
	nodes := cfg.ZigBeeNodes
	if nodes == 0 {
		nodes = 1
	}
	phase := make([]nodePhase, nodes)
	counts := map[string]int{}
	wifiOn := false
	prev := 0.0
	for i, ev := range events {
		if ev.Time < prev {
			fail(i, "time runs backwards from %g", prev)
		}
		prev = ev.Time
		counts[ev.Kind]++
		switch ev.Kind {
		case TraceWiFiStart, TraceWiFiEnd:
			if ev.Node != -1 {
				fail(i, "WiFi event on node %d", ev.Node)
			}
			if wifiOn == (ev.Kind == TraceWiFiStart) {
				fail(i, "WiFi start/end out of alternation")
			}
			wifiOn = !wifiOn
			continue
		}
		if ev.Node < 0 || ev.Node >= nodes {
			fail(i, "node out of range [0, %d)", nodes)
		}
		p := &phase[ev.Node]
		switch ev.Kind {
		case TraceCCABusy, TraceCCADrop:
			if *p != contending {
				fail(i, "channel sensed while the node is not contending")
			}
		case TraceZBStart:
			if *p != contending {
				fail(i, "frame sent while the previous one is unresolved")
			}
			*p = onAir
		case TraceZBDelivered:
			if *p != onAir {
				fail(i, "delivery without a frame on air")
			}
			*p = contending
		case TraceZBCorrupted, TraceZBCollided:
			if *p != onAir {
				fail(i, "loss without a frame on air")
			}
			*p = contending
			if cfg.UseAcks {
				*p = deciding
			}
		case TraceZBAckFailure:
			if !cfg.UseAcks || *p != onAir {
				fail(i, "ACK failure outside an ACK exchange")
			}
			*p = deciding
		case TraceZBRetry, TraceZBDropped:
			if !cfg.UseAcks || *p != deciding {
				fail(i, "retry/drop decision without a lost frame")
			}
			*p = contending
		default:
			fail(i, "unknown event kind")
		}
	}
	pairs := []struct {
		kind string
		want int
	}{
		{TraceZBStart, res.ZigBeeSent},
		{TraceZBDelivered, res.ZigBeeDelivered},
		{TraceZBCorrupted, res.ZigBeeCorrupted},
		{TraceCCADrop, res.ZigBeeCCADrops},
		{TraceZBRetry, res.ZigBeeRetries},
		{TraceZBAckFailure, res.ZigBeeAckFailures},
		{TraceZBDropped, res.ZigBeeDropped},
		{TraceWiFiStart, res.WiFiFramesSent},
	}
	for _, pc := range pairs {
		if counts[pc.kind] != pc.want {
			t.Fatalf("%s: %d %s events, Result says %d", name, counts[pc.kind], pc.kind, pc.want)
		}
	}
	if f := res.WiFiAirtime / res.SimulatedDuration; f < 0 || f > 1 {
		t.Fatalf("%s: WiFi airtime fraction %g outside [0, 1]", name, f)
	}
	if res.ZigBeeDelivered > res.ZigBeeSent {
		t.Fatalf("%s: delivered %d of %d sent", name, res.ZigBeeDelivered, res.ZigBeeSent)
	}
}

func runTraced(t *testing.T, cfg Config) ([]obs.Event, *Result) {
	t.Helper()
	var events []obs.Event
	cfg.Trace = obs.SinkFunc(func(ev obs.Event) { events = append(events, ev) })
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return events, res
}

func TestEventStreamConservation(t *testing.T) {
	for _, c := range goldenCases() {
		events, res := runTraced(t, c.cfg)
		checkEventStream(t, c.name, c.cfg, events, res)
	}
	// Random geometries, traffic shapes and MAC options.
	rng := rand.New(rand.NewSource(5))
	profiles := []WiFiProfile{normalProfile(), sledzigProfile()}
	for i := 0; i < 40; i++ {
		cfg := Config{
			Seed:             rng.Int63(),
			Duration:         0.3 + rng.Float64(),
			DWZ:              0.5 + 8*rng.Float64(),
			DZ:               0.3 + 1.5*rng.Float64(),
			Profile:          profiles[rng.Intn(2)],
			DutyRatio:        []float64{-1, 0.2, 0.6, 1}[rng.Intn(4)],
			WiFiFrameAirtime: []float64{0, 4e-3, 20e-3}[rng.Intn(3)],
			CCAMode:          CCAMode(rng.Intn(2)),
			ZigBeeNodes:      1 + rng.Intn(5),
			UseAcks:          rng.Intn(2) == 0,
			MaxFrameRetries:  rng.Intn(4),
		}
		if rng.Intn(3) == 0 {
			cfg.ZigBeeInterval = 0.005 + 0.05*rng.Float64()
		}
		events, res := runTraced(t, cfg)
		checkEventStream(t, "random", cfg, events, res)
	}
}

// TestEventQueueOrder drives the typed heap with interleaved pushes and
// pops, many at equal times, and checks every pop against the minimum of
// a sorted copy of what is queued, plus a final drain. Equal times must
// pop in scheduling order.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var q, live eventQueue
	popMin := func(step int) {
		t.Helper()
		sort.Slice(live, func(i, j int) bool {
			if live[i].at != live[j].at {
				return live[i].at < live[j].at
			}
			return live[i].seq < live[j].seq
		})
		if got := q.pop(); got != live[0] {
			t.Fatalf("step %d: popped %+v, minimum is %+v", step, got, live[0])
		}
		live = live[1:]
	}
	for step := 1; step <= 5000; step++ {
		if len(q) == 0 || rng.Intn(3) > 0 {
			ev := event{at: float64(rng.Intn(50)), seq: step}
			q.push(ev)
			live = append(live, ev)
			continue
		}
		popMin(step)
	}
	for len(q) > 0 {
		popMin(-1)
	}
}

// TestRunAllocationFree pins the steady-state allocation count: once the
// pool holds a warmed simulator, a run allocates only its Result.
func TestRunAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; checked in the non-race run")
	}
	for name, cfg := range benchConfigs() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 1 {
			t.Errorf("%s: %.1f allocs per Run, want 1 (the Result)", name, avg)
		}
	}
}
