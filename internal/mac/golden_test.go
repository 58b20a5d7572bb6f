package mac

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"sledzig/internal/obs"
	"sledzig/internal/wifi"
)

// goldenCase pins one configuration's full outcome: the Result and a hash
// of every trace event (time bits, kind, node). Speed work on the
// simulator (event queue, despreading, buffer reuse) must leave every
// random draw, event and figure exactly where it is; refresh these values
// only for an intended change to the model.
type goldenCase struct {
	name   string
	cfg    Config
	events int
	hash   uint64
	want   Result
}

func goldenCases() []goldenCase {
	b := benchConfigs()
	return []goldenCase{
		{"near", b["near"], 136, 0xecc7045096170aab, Result{ZigBeeThroughputBps: 14400, ZigBeeSent: 14, ZigBeeDelivered: 9, ZigBeeCorrupted: 5, ZigBeeCCADrops: 5, ZigBeeMeanLatency: 0.016113777777777786, ZigBeeMaxLatency: 0.022015999999999925, WiFiFramesSent: 18, WiFiAirtime: 0.34, SimulatedDuration: 0.5}},
		{"far", b["far"], 114, 0xbc8d799d5ee61599, Result{ZigBeeThroughputBps: 62400, ZigBeeSent: 40, ZigBeeDelivered: 39, ZigBeeMeanLatency: 0.00472451282051283, ZigBeeMaxLatency: 0.005824000000000051, WiFiFramesSent: 18, WiFiAirtime: 0.34, SimulatedDuration: 0.5}},
		{"acks", b["acks"], 323, 0x40bd0c298cb09d8f, Result{ZigBeeThroughputBps: 132800, ZigBeeSent: 84, ZigBeeDelivered: 83, ZigBeeCCADrops: 5, ZigBeeMeanLatency: 0.00842448192771088, ZigBeeMaxLatency: 0.02768000000000001, WiFiFramesSent: 25, WiFiAirtime: 0.48000000000000015, SimulatedDuration: 0.5}},
		{"energy-cca", Config{Seed: 3, Duration: 2, DWZ: 4, DZ: 1, Profile: normalProfile()},
			6900, 0x2db1a2e7d8ba373a, Result{ZigBeeSent: 26, ZigBeeCorrupted: 26, ZigBeeCCADrops: 56, WiFiFramesSent: 3234, WiFiAirtime: 1.6940919999999395, SimulatedDuration: 2}},
		{"sledzig-4.5m", Config{Seed: 4, Duration: 2, DWZ: 4.5, DZ: 1, Profile: sledzigProfile()},
			6770, 0xce9cced4998f77aa, Result{ZigBeeThroughputBps: 59600, ZigBeeSent: 158, ZigBeeDelivered: 149, ZigBeeCorrupted: 9, ZigBeeMeanLatency: 0.004814604026845555, ZigBeeMaxLatency: 0.005824000000000051, WiFiFramesSent: 3227, WiFiAirtime: 1.6909479999999397, SimulatedDuration: 2}},
		{"nodes-4", Config{Seed: 8, Duration: 2, DWZ: 8, DZ: 1, DutyRatio: -1, ZigBeeNodes: 4},
			1506, 0xdff021e4f9ec9d31, Result{ZigBeeThroughputBps: 160000, ZigBeeSent: 401, ZigBeeDelivered: 400, ZigBeeCCADrops: 39, ZigBeeMeanLatency: 0.009316479999999863, ZigBeeMaxLatency: 0.03257599999999927, SimulatedDuration: 2}},
		{"periodic", Config{Seed: 13, Duration: 2, DWZ: 4.5, DZ: 1, DutyRatio: 0.5, Profile: sledzigProfile(), ZigBeeInterval: 0.02, CCAMode: CCACarrierOnly},
			3977, 0x70bc7bd4cf5a921c, Result{ZigBeeThroughputBps: 31600, ZigBeeSent: 81, ZigBeeDelivered: 79, ZigBeeCorrupted: 2, ZigBeeMeanLatency: 0.004645265822784722, ZigBeeMaxLatency: 0.005824000000000051, WiFiFramesSent: 1908, WiFiAirtime: 0.9992679999999807, SimulatedDuration: 2}},
		{"qam64-wifi-rx", Config{Seed: 6, Duration: 2, DWZ: 1, DZ: 0.5, DW: 1, Profile: sledzigProfile(), WiFiMode: wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate34}},
			12225, 0xaa44b105dbca11ff, Result{ZigBeeSent: 20, ZigBeeCorrupted: 20, ZigBeeCCADrops: 59, WiFiFramesSent: 5900, WiFiAirtime: 1.439355999999903, SimulatedDuration: 2}},
		{"acks-lossy", Config{Seed: 9, Duration: 3, DWZ: 5.5, DZ: 1.3, Profile: normalProfile(), DutyRatio: 0.6, WiFiFrameAirtime: 20e-3, CCAMode: CCACarrierOnly, UseAcks: true, ZigBeeNodes: 2},
			2032, 0x5f35336e47d460b, Result{ZigBeeThroughputBps: 36800, ZigBeeSent: 505, ZigBeeDelivered: 138, ZigBeeCorrupted: 354, ZigBeeCCADrops: 15, ZigBeeCollisions: 3, ZigBeeRetries: 326, ZigBeeAckFailures: 10, ZigBeeDropped: 41, ZigBeeMeanLatency: 0.020862376811594106, ZigBeeMaxLatency: 0.06489599999999851, WiFiFramesSent: 91, WiFiAirtime: 1.8000000000000012, SimulatedDuration: 3}},
		{"nodes-8", Config{Seed: 21, Duration: 2, DWZ: 6, DZ: 1, Profile: sledzigProfile(), DutyRatio: 0.5, ZigBeeNodes: 8, UseAcks: true, MaxFrameRetries: 1},
			7242, 0xfca50c032e8e0496, Result{ZigBeeThroughputBps: 145200, ZigBeeSent: 430, ZigBeeDelivered: 363, ZigBeeCorrupted: 3, ZigBeeCCADrops: 303, ZigBeeCollisions: 32, ZigBeeRetries: 60, ZigBeeAckFailures: 32, ZigBeeDropped: 6, ZigBeeMeanLatency: 0.012099966942148566, ZigBeeMaxLatency: 0.04774399999999912, WiFiFramesSent: 1907, WiFiAirtime: 0.9987439999999808, SimulatedDuration: 2}},
	}
}

// runHashed runs cfg with a tracer that hashes every event.
func runHashed(cfg Config) (res *Result, events int, hash uint64, err error) {
	h := fnv.New64a()
	cfg.Trace = obs.SinkFunc(func(ev obs.Event) {
		events++
		fmt.Fprintf(h, "%x %s %d\n", math.Float64bits(ev.Time), ev.Kind, ev.Node)
	})
	res, err = Run(cfg)
	return res, events, h.Sum64(), err
}

func TestRunMatchesGolden(t *testing.T) {
	cases := goldenCases()
	// Two passes in opposite orders: a recycled simulator must not carry
	// anything from whichever configuration used it last.
	for pass := 0; pass < 2; pass++ {
		for i := range cases {
			c := cases[i]
			if pass == 1 {
				c = cases[len(cases)-1-i]
			}
			res, events, hash, err := runHashed(c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if *res != c.want {
				t.Errorf("%s (pass %d): result\n got %+v\nwant %+v", c.name, pass, *res, c.want)
			}
			if events != c.events || hash != c.hash {
				t.Errorf("%s (pass %d): event stream %d events hash %#x, want %d events hash %#x",
					c.name, pass, events, hash, c.events, c.hash)
			}
		}
	}
}

// TestRunConcurrentMatchesGolden runs the golden configurations from
// several goroutines at once, so pooled simulators change hands between
// goroutines; under -race it checks that a recycled simulator shares no
// state with the run that returned it.
func TestRunConcurrentMatchesGolden(t *testing.T) {
	cases := goldenCases()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cases {
				c := cases[(i+g)%len(cases)]
				res, events, hash, err := runHashed(c.cfg)
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				if *res != c.want || events != c.events || hash != c.hash {
					t.Errorf("%s (goroutine %d): result %+v, %d events hash %#x; want %+v, %d events hash %#x",
						c.name, g, *res, events, hash, c.want, c.events, c.hash)
				}
			}
		}(g)
	}
	wg.Wait()
}
