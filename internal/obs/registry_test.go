package obs

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestConcurrentCounters(t *testing.T) {
	r := New()
	c := r.Counter("hot.path")
	g := r.Gauge("level")
	h := r.Histogram("lat.seconds")

	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				// Same names resolved concurrently must return the same handles.
				r.Counter("hot.path").Add(1)
				g.Add(1)
				h.Observe(1e-6)
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != 2*workers*perWorker {
		t.Fatalf("counter %d, want %d", got, 2*workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge %g, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count %d, want %d", got, workers*perWorker)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(1)
	r.Bus().Publish(Event{})
	r.Emit(Event{})
	if r.Bus().Active() {
		t.Fatal("nil bus active")
	}
	sc := r.Scope("x")
	sc.Counter("y").Inc()
	sc.Gauge("z").Add(1)
	st := sc.Stage("w")
	if st.Name() != "x.w" {
		t.Fatalf("nil-registry stage named %q, want x.w (trace spans need the name)", st.Name())
	}
	pass := st.Start()
	if pass != (Pass{}) {
		t.Fatal("nil-registry stage Start should not read the clock")
	}
	pass.End(10, nil)
	pass.End(0, errors.New("boom"))
	var nilStage *Stage
	nilStage.Start().End(1, nil)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestStageAccounting(t *testing.T) {
	r := New()
	st := r.Scope("core.encode").Stage("solve")
	if st.Name() != "core.encode.solve" {
		t.Fatalf("stage named %q", st.Name())
	}
	pass := st.Start()
	time.Sleep(time.Millisecond)
	pass.End(128, nil)
	st.Start().End(64, errors.New("solve failed")) // an error adds no bytes

	if got := r.Counter("core.encode.solve.calls").Value(); got != 2 {
		t.Fatalf("calls %d", got)
	}
	if got := r.Counter("core.encode.solve.bytes").Value(); got != 128 {
		t.Fatalf("bytes %d", got)
	}
	if got := r.Counter("core.encode.solve.errors").Value(); got != 1 {
		t.Fatalf("errors %d", got)
	}
	h := r.Histogram("core.encode.solve.seconds")
	if h.Count() != 2 || h.Sum() < 1e-3 {
		t.Fatalf("seconds count %d sum %g", h.Count(), h.Sum())
	}
}

func TestLazyRebuildsOnSetDefault(t *testing.T) {
	prev := Default()
	defer SetDefault(prev)

	var lazy Lazy[*Counter]
	builds := 0
	build := func(r *Registry) *Counter {
		builds++
		return r.Counter("lazy.test")
	}

	SetDefault(nil)
	if c := lazy.Get(build); c != nil {
		t.Fatal("nil registry should yield nil handle")
	}
	lazy.Get(build)
	if builds != 1 {
		t.Fatalf("builds %d after repeat with unchanged (nil) registry", builds)
	}

	r1 := New()
	SetDefault(r1)
	c := lazy.Get(build)
	c.Inc()
	lazy.Get(build).Inc()
	if builds != 2 {
		t.Fatalf("builds %d after registry install", builds)
	}
	if got := r1.Counter("lazy.test").Value(); got != 2 {
		t.Fatalf("lazy counter routed %d increments to r1, want 2", got)
	}

	r2 := New()
	SetDefault(r2)
	lazy.Get(build).Inc()
	if builds != 3 {
		t.Fatalf("builds %d after registry swap", builds)
	}
	if r2.Counter("lazy.test").Value() != 1 || r1.Counter("lazy.test").Value() != 2 {
		t.Fatal("increments leaked across registries")
	}
}

func TestTopStages(t *testing.T) {
	r := New()
	slow := r.Scope("a").Stage("slow")
	fast := r.Scope("a").Stage("fast")
	Pass{st: slow, t0: time.Now().Add(-100 * time.Millisecond)}.End(10, nil)
	Pass{st: fast, t0: time.Now().Add(-time.Millisecond)}.End(20, nil)
	Pass{st: fast, t0: time.Now().Add(-time.Millisecond)}.End(20, nil)
	r.Histogram("not.a.stage").Observe(1) // no .seconds suffix — excluded

	top := r.Snapshot().TopStages(0)
	if len(top) != 2 {
		t.Fatalf("%d stages, want 2", len(top))
	}
	if top[0].Name != "a.slow" || top[1].Name != "a.fast" {
		t.Fatalf("order %q, %q", top[0].Name, top[1].Name)
	}
	if top[1].Calls != 2 || top[1].Bytes != 40 {
		t.Fatalf("fast stage calls %d bytes %d", top[1].Calls, top[1].Bytes)
	}
	if got := r.Snapshot().TopStages(1); len(got) != 1 {
		t.Fatalf("max=1 returned %d", len(got))
	}
}
