package main

import (
	"runtime"
	"time"
)

// opResult is what one timed op hands back to the loop.
type opResult struct {
	latency time.Duration
	frames  int     // frames the op completed correctly
	air     float64 // seconds of airtime (or simulated time) those frames cover
}

// timeline buckets completions into 1 s windows of wall time.
type timeline struct {
	start       time.Time
	frames, air []float64
}

func (t *timeline) add(at time.Time, frames int, air float64) {
	w := int(at.Sub(t.start) / time.Second)
	for len(t.frames) <= w {
		t.frames = append(t.frames, 0)
		t.air = append(t.air, 0)
	}
	t.frames[w] += float64(frames)
	t.air[w] += air
}

// rates returns frames and airtime per wall second: the median over the
// whole windows in span, which a passing stall of the host moves less than
// a mean would, or totals over span when it is under one window or
// overSpan asks for them.
func (t *timeline) rates(span time.Duration, overSpan bool) (frames, air float64) {
	full := int(span / time.Second)
	for len(t.frames) < full {
		t.frames = append(t.frames, 0)
		t.air = append(t.air, 0)
	}
	if full < 1 || overSpan {
		var f, a float64
		for i := range t.frames {
			f += t.frames[i]
			a += t.air[i]
		}
		return f / span.Seconds(), a / span.Seconds()
	}
	return median(t.frames[:full]), median(t.air[:full])
}

// loopStats is one timed loop's raw measurements.
type loopStats struct {
	timeline
	span          time.Duration
	overSpan      bool // rates over the whole span, not per window
	attempted     int
	latencies     []time.Duration
	allocs, bytes uint64 // heap allocations during the loop
}

func newLoopStats() *loopStats {
	// Sized so the loop itself does not allocate in any normal run.
	return &loopStats{latencies: make([]time.Duration, 0, 1<<17)}
}

// memWindow brackets a loop with heap statistics.
type memWindow struct{ m0 runtime.MemStats }

func (m *memWindow) begin() {
	runtime.GC()
	runtime.ReadMemStats(&m.m0)
}

func (m *memWindow) end(s *loopStats) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	s.allocs = m1.Mallocs - m.m0.Mallocs
	s.bytes = m1.TotalAlloc - m.m0.TotalAlloc
}

// liveHeapMiB is the heap still in use after garbage collection while
// system (the workload's encoders, decoders or engine) is alive. Callers
// drop their own inputs first, so what remains is what the program keeps:
// its state and process-wide caches. The second collection empties the
// sync.Pool victim caches the first one leaves behind.
func liveHeapMiB(system any) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(system)
	return float64(m.HeapAlloc) / mib
}

// closedLoop runs op back to back on one goroutine until the run's time
// (or op limit) is used up. op times its own facade call and returns an
// error for a failed op or check.
func closedLoop(o options, rep *report, op func(i int) (opResult, error)) *loopStats {
	s := newLoopStats()
	var mem memWindow
	mem.begin()
	s.start = time.Now()
	limit := o.duration()
	for i := 0; o.maxOps == 0 || i < o.maxOps; i++ {
		r, err := op(i)
		now := time.Now()
		s.attempted++
		s.latencies = append(s.latencies, r.latency)
		if err != nil {
			rep.fail("op %d: %v", i, err)
		} else {
			s.add(now, r.frames, r.air)
		}
		if now.Sub(s.start) >= limit {
			break
		}
	}
	s.span = time.Since(s.start)
	mem.end(s)
	return s
}

const mib = 1 << 20

// endToEnd fills the report from the loop: the result-line metrics
// (live_heap_mib and setup_s are added by the callers), and under extra
// the ones that do not repeat within their bounds (README.md, "Measured
// spread"): wall-time throughput and latency, which follow the shared
// host's speed, and the band drop, which varies with the seed's payloads
// by more than 0.05 dB.
func (s *loopStats) endToEnd(rep *report, dropDB float64) {
	frames, air := s.rates(s.span, s.overSpan)
	lat := micros(s.latencies)
	ops := float64(max(s.attempted, 1))
	rep.attempted += s.attempted
	rep.metrics = map[string]metric{
		"allocs_per_op":      {float64(s.allocs) / ops, "count"},
		"alloc_bytes_per_op": {float64(s.bytes) / ops, "B"},
	}
	rep.extra = map[string]metric{
		"frames_per_s":      {frames, "1/s"},
		"sim_s_per_wall_s":  {air, "s/s"},
		"latency_p50_us":    {percentile(lat, 0.50), "us"},
		"latency_p99_us":    {percentile(lat, 0.99), "us"},
		"protected_drop_db": {dropDB, "dB"},
	}
}
