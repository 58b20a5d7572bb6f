package mac

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sledzig/internal/channel"
	"sledzig/internal/obs"
	"sledzig/internal/wifi"
)

// normalProfile mimics the paper's measured in-band power of a normal WiFi
// signal in a pilot-bearing channel: -60 dBm at 1 m, flat across segments.
func normalProfile() WiFiProfile {
	return WiFiProfile{
		PreambleDBm: channel.WiFiBandRSSIAt1mDBm,
		DataDBm:     channel.WiFiBandRSSIAt1mDBm,
		PilotDBm:    math.Inf(-1),
	}
}

// sledzigProfile mimics a QAM-256 CH1-CH3 SledZig signal: payload data
// subcarriers 19.9 dB down, pilot tone dominating the remnant.
func sledzigProfile() WiFiProfile {
	return WiFiProfile{
		PreambleDBm: channel.WiFiBandRSSIAt1mDBm,
		DataDBm:     channel.WiFiBandRSSIAt1mDBm - 19.9,
		PilotDBm:    channel.WiFiBandRSSIAt1mDBm - 9.0,
	}
}

func TestNoWiFiBaselineThroughput(t *testing.T) {
	res, err := Run(Config{
		Seed:      1,
		Duration:  20,
		DWZ:       5,
		DZ:        1,
		DutyRatio: -1, // WiFi silent
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's no-interference baseline is ~63 kbit/s; the calibrated
	// per-packet overhead should land within 10%.
	if res.ZigBeeThroughputBps < 55e3 || res.ZigBeeThroughputBps > 72e3 {
		t.Fatalf("baseline ZigBee throughput %.1f kbit/s, want ~63", res.ZigBeeThroughputBps/1e3)
	}
	if res.ZigBeeCorrupted != 0 {
		t.Fatalf("%d corrupted frames without interference", res.ZigBeeCorrupted)
	}
	if res.WiFiFramesSent != 0 {
		t.Fatalf("WiFi sent %d frames while silent", res.WiFiFramesSent)
	}
}

func TestCCABlocksZigBeeNearWiFi(t *testing.T) {
	// At 1 m under continuous normal WiFi, the ZigBee CCA sees ~-60 dBm
	// (far above -77) and nearly every access attempt fails.
	res, err := Run(Config{
		Seed:     2,
		Duration: 10,
		DWZ:      1,
		DZ:       0.5,
		Profile:  normalProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ZigBeeThroughputBps > 10e3 {
		t.Fatalf("ZigBee throughput %.1f kbit/s near a saturated WiFi, want ~0", res.ZigBeeThroughputBps/1e3)
	}
	if res.ZigBeeCCADrops == 0 {
		t.Fatal("expected CCA drops near a saturated WiFi transmitter")
	}
}

func TestZigBeeRecoversOutsideCarrierSenseRange(t *testing.T) {
	// Paper Fig. 14: under normal WiFi the ZigBee link reaches its
	// baseline throughput only around d_WZ >= 8.5 m.
	far, err := Run(Config{Seed: 3, Duration: 15, DWZ: 10, DZ: 1, Profile: normalProfile()})
	if err != nil {
		t.Fatal(err)
	}
	near, err := Run(Config{Seed: 3, Duration: 15, DWZ: 4, DZ: 1, Profile: normalProfile()})
	if err != nil {
		t.Fatal(err)
	}
	if far.ZigBeeThroughputBps < 50e3 {
		t.Fatalf("at 10 m: %.1f kbit/s, want near baseline", far.ZigBeeThroughputBps/1e3)
	}
	if near.ZigBeeThroughputBps > far.ZigBeeThroughputBps/2 {
		t.Fatalf("at 4 m (%.1f kbit/s) should be far below 10 m (%.1f kbit/s)",
			near.ZigBeeThroughputBps/1e3, far.ZigBeeThroughputBps/1e3)
	}
}

func TestSledZigShortensCarrierSenseRange(t *testing.T) {
	// The headline effect: at a distance where normal WiFi silences the
	// ZigBee link, a SledZig (QAM-256-like) profile lets it transmit.
	dwz := 4.5
	normal, err := Run(Config{Seed: 4, Duration: 15, DWZ: dwz, DZ: 1, Profile: normalProfile()})
	if err != nil {
		t.Fatal(err)
	}
	sled, err := Run(Config{Seed: 4, Duration: 15, DWZ: dwz, DZ: 1, Profile: sledzigProfile()})
	if err != nil {
		t.Fatal(err)
	}
	if normal.ZigBeeThroughputBps > 20e3 {
		t.Fatalf("normal WiFi at %.1f m lets ZigBee through (%.1f kbit/s)", dwz, normal.ZigBeeThroughputBps/1e3)
	}
	if sled.ZigBeeThroughputBps < 40e3 {
		t.Fatalf("SledZig at %.1f m: %.1f kbit/s, want a large recovery", dwz, sled.ZigBeeThroughputBps/1e3)
	}
}

func TestDutyRatioControlsWiFiAirtime(t *testing.T) {
	for _, duty := range []float64{0.2, 0.5, 0.9} {
		res, err := Run(Config{Seed: 5, Duration: 20, DWZ: 8, DZ: 1, DutyRatio: duty, Profile: normalProfile()})
		if err != nil {
			t.Fatal(err)
		}
		got := res.WiFiAirtime / res.SimulatedDuration
		if math.Abs(got-duty) > 0.12 {
			t.Errorf("duty %.1f: realized airtime fraction %.2f", duty, got)
		}
	}
}

func TestWiFiUnaffectedByZigBee(t *testing.T) {
	// Paper section V-D2: ZigBee interference at the WiFi receiver sits
	// ~30 dB below the WiFi signal, so no WiFi frames fail.
	res, err := Run(Config{
		Seed: 6, Duration: 10, DWZ: 1, DZ: 0.5, DW: 1,
		Profile:  sledzigProfile(),
		WiFiMode: wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate34},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WiFiFramesFailed != 0 {
		t.Fatalf("%d WiFi frames failed under ZigBee interference, want 0", res.WiFiFramesFailed)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{Duration: 1}); err == nil {
		t.Error("zero distances accepted")
	}
	if _, err := Run(Config{Duration: 1, DWZ: 1, DZ: 1}); err == nil {
		t.Error("empty WiFi profile accepted for active WiFi")
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	cfg := Config{Seed: 7, Duration: 5, DWZ: 5, DZ: 1, Profile: sledzigProfile()}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

func TestChipErrorProbabilityMonotone(t *testing.T) {
	prev := 0.5
	for _, sinr := range []float64{0.01, 0.1, 1, 10, 100} {
		p := chipErrorProbability(sinr)
		if p >= prev {
			t.Fatalf("chip error probability not decreasing at SINR %g", sinr)
		}
		prev = p
	}
	if p := chipErrorProbability(-1); p != 0.5 {
		t.Fatalf("negative SINR should saturate at 0.5, got %g", p)
	}
}

func TestMultiNodeContention(t *testing.T) {
	// Aggregate throughput grows with a second node (the medium is far
	// from saturated at one node's ~63 kbit/s), and collisions appear.
	one, err := Run(Config{Seed: 8, Duration: 15, DWZ: 8, DZ: 1, DutyRatio: -1, ZigBeeNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(Config{Seed: 8, Duration: 15, DWZ: 8, DZ: 1, DutyRatio: -1, ZigBeeNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if four.ZigBeeThroughputBps < 1.5*one.ZigBeeThroughputBps {
		t.Fatalf("4 nodes: %.1f kbit/s vs 1 node: %.1f kbit/s",
			four.ZigBeeThroughputBps/1e3, one.ZigBeeThroughputBps/1e3)
	}
	// Carrier sense keeps the collision rate low but not zero.
	if four.ZigBeeCollisions == 0 {
		t.Log("no collisions among 4 nodes (possible but unusual)")
	}
	if frac := float64(four.ZigBeeCollisions) / float64(four.ZigBeeSent+1); frac > 0.3 {
		t.Fatalf("collision fraction %.2f too high for CSMA", frac)
	}
}

func TestAcksRecoverLossesViaRetries(t *testing.T) {
	// Geometry where a fraction of frames die to WiFi interference: with
	// ACKs + retries the delivery ratio of unique frames improves.
	cfg := Config{
		Seed: 9, Duration: 15, DWZ: 5.5, DZ: 1.3,
		Profile: normalProfile(), DutyRatio: 1,
		WiFiFrameAirtime: 20e-3, CCAMode: CCACarrierOnly,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acked := cfg
	acked.UseAcks = true
	withAcks, err := Run(acked)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ZigBeeCorrupted == 0 {
		t.Skip("geometry produced no losses; retry benefit unobservable")
	}
	plainRatio := float64(plain.ZigBeeDelivered) / float64(plain.ZigBeeDelivered+plain.ZigBeeCorrupted)
	ackedRatio := float64(withAcks.ZigBeeDelivered) /
		float64(withAcks.ZigBeeDelivered+withAcks.ZigBeeDropped)
	if withAcks.ZigBeeRetries == 0 {
		t.Fatal("no retries recorded despite losses")
	}
	if ackedRatio < plainRatio {
		t.Fatalf("ACK delivery ratio %.2f below plain %.2f", ackedRatio, plainRatio)
	}
}

func TestAcksCostThroughputWhenClean(t *testing.T) {
	// On a clean channel ACKs only add overhead: throughput dips slightly
	// but delivery stays perfect.
	plain, err := Run(Config{Seed: 10, Duration: 15, DWZ: 9, DZ: 1, DutyRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	acked, err := Run(Config{Seed: 10, Duration: 15, DWZ: 9, DZ: 1, DutyRatio: -1, UseAcks: true})
	if err != nil {
		t.Fatal(err)
	}
	if acked.ZigBeeDropped != 0 || acked.ZigBeeAckFailures != 0 {
		t.Fatalf("clean channel lost frames: %+v", acked)
	}
	if acked.ZigBeeThroughputBps > plain.ZigBeeThroughputBps {
		t.Fatalf("ACKs increased throughput (%.1f vs %.1f)",
			acked.ZigBeeThroughputBps/1e3, plain.ZigBeeThroughputBps/1e3)
	}
	if acked.ZigBeeThroughputBps < 0.85*plain.ZigBeeThroughputBps {
		t.Fatalf("ACK overhead too large: %.1f vs %.1f kbit/s",
			acked.ZigBeeThroughputBps/1e3, plain.ZigBeeThroughputBps/1e3)
	}
}

func TestTraceEventsConsistentWithCounters(t *testing.T) {
	var events []obs.Event
	sum := map[string]int{}
	cfg := Config{
		Seed: 11, Duration: 5, DWZ: 5, DZ: 1,
		Profile: sledzigProfile(), UseAcks: true,
		Trace: obs.SinkFunc(func(ev obs.Event) {
			events = append(events, ev)
			sum[ev.Kind]++
		}),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum[TraceZBStart] != res.ZigBeeSent {
		t.Fatalf("trace zb_start %d vs sent %d", sum[TraceZBStart], res.ZigBeeSent)
	}
	if sum[TraceZBDelivered] != res.ZigBeeDelivered {
		t.Fatalf("trace delivered %d vs %d", sum[TraceZBDelivered], res.ZigBeeDelivered)
	}
	if sum[TraceWiFiStart] != res.WiFiFramesSent {
		t.Fatalf("trace wifi_start %d vs %d", sum[TraceWiFiStart], res.WiFiFramesSent)
	}
	if sum[TraceCCADrop] != res.ZigBeeCCADrops {
		t.Fatalf("trace cca_drop %d vs %d", sum[TraceCCADrop], res.ZigBeeCCADrops)
	}
	// Events arrive in time order.
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatal("trace events out of order")
		}
	}
}

// TestCSVTracer traces a run straight into an obs CSV sink: one
// "t,source,kind,node,detail" row per event, source "mac".
func TestCSVTracer(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewCSVSink(&buf)
	var n int
	cfg := traceSimConfig(obs.SinkFunc(func(ev obs.Event) {
		n++
		sink.Emit(ev)
	}))
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "t,source,kind,node,detail" || len(lines) != n+1 {
		t.Fatalf("csv has %d lines for %d events, header %q", len(lines), n, lines[0])
	}
	if !strings.Contains(buf.String(), ",mac,zb_start,0,") {
		t.Fatalf("no zb_start row for node 0 in %q", lines[:min(len(lines), 5)])
	}
}

func TestLatencyStatistics(t *testing.T) {
	res, err := Run(Config{Seed: 12, Duration: 10, DWZ: 8, DZ: 1, DutyRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Clean channel: latency is backoff + CCA + airtime, well under 10 ms.
	if res.ZigBeeMeanLatency <= 3e-3 || res.ZigBeeMeanLatency > 10e-3 {
		t.Fatalf("mean latency %.2f ms", res.ZigBeeMeanLatency*1e3)
	}
	if res.ZigBeeMaxLatency < res.ZigBeeMeanLatency {
		t.Fatal("max below mean")
	}
	// Under interference with ACK retries, latency grows.
	hard, err := Run(Config{
		Seed: 12, Duration: 10, DWZ: 5.5, DZ: 1.3, Profile: normalProfile(),
		WiFiFrameAirtime: 20e-3, CCAMode: CCACarrierOnly, UseAcks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hard.ZigBeeDelivered > 0 && hard.ZigBeeMeanLatency < res.ZigBeeMeanLatency {
		t.Fatalf("latency under interference (%.2f ms) below clean-channel latency (%.2f ms)",
			hard.ZigBeeMeanLatency*1e3, res.ZigBeeMeanLatency*1e3)
	}
}

func TestPeriodicTrafficModel(t *testing.T) {
	// 100 B every 100 ms => 8 kbit/s offered load; the clean channel must
	// deliver essentially all of it, far below saturation.
	res, err := Run(Config{
		Seed: 13, Duration: 20, DWZ: 8, DZ: 1, DutyRatio: -1,
		ZigBeeInterval: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	offered := 8.0 * 100 / 0.1 // bits per second
	if res.ZigBeeThroughputBps < 0.8*offered || res.ZigBeeThroughputBps > 1.3*offered {
		t.Fatalf("periodic throughput %.0f bit/s vs offered %.0f", res.ZigBeeThroughputBps, offered)
	}
	// Saturated traffic delivers far more.
	sat, err := Run(Config{Seed: 13, Duration: 20, DWZ: 8, DZ: 1, DutyRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	if sat.ZigBeeThroughputBps < 5*res.ZigBeeThroughputBps {
		t.Fatalf("saturated %.1f kbit/s not far above periodic %.1f",
			sat.ZigBeeThroughputBps/1e3, res.ZigBeeThroughputBps/1e3)
	}
}

func TestGoodputFraction(t *testing.T) {
	r := Result{ZigBeeSent: 10, ZigBeeDelivered: 7}
	if g := r.ZigBeeGoodputFraction(); g != 0.7 {
		t.Fatalf("goodput %g", g)
	}
	if g := (Result{}).ZigBeeGoodputFraction(); g != 0 {
		t.Fatalf("empty goodput %g", g)
	}
}

func TestProfileTotals(t *testing.T) {
	p := WiFiProfile{PreambleDBm: -60, DataDBm: -70, PilotDBm: -70}
	// Two equal -70 dBm components sum to ~-67.
	if tot := p.TotalPayloadDBm(); tot < -67.2 || tot > -66.8 {
		t.Fatalf("payload total %g", tot)
	}
	noPilot := WiFiProfile{PreambleDBm: -60, DataDBm: -70, PilotDBm: math.Inf(-1)}
	if tot := noPilot.TotalPayloadDBm(); tot != -70 {
		t.Fatalf("pilot-free total %g", tot)
	}
}

func TestWiFiDutyVeryLow(t *testing.T) {
	res, err := Run(Config{
		Seed: 14, Duration: 20, DWZ: 2, DZ: 0.5,
		Profile: normalProfile(), DutyRatio: 0.05,
		WiFiFrameAirtime: 4e-3, CCAMode: CCACarrierOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	frac := res.WiFiAirtime / res.SimulatedDuration
	if frac > 0.1 {
		t.Fatalf("realized airtime %.3f for duty 0.05", frac)
	}
	// Almost all of the channel is idle, so ZigBee runs near baseline.
	if res.ZigBeeThroughputBps < 45e3 {
		t.Fatalf("throughput %.1f kbit/s at 5%% WiFi duty", res.ZigBeeThroughputBps/1e3)
	}
}
