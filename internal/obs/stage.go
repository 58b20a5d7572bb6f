package obs

import "time"

// Scope is a named slice of a registry ("core.encode", "wifi.rx") from
// which pipeline stages hang. A nil registry still hands out a scope: its
// stages carry their names (so trace spans stay named) but nil metric
// handles.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope returns a sub-namespace of the registry.
func (r *Registry) Scope(prefix string) *Scope {
	return &Scope{r: r, prefix: prefix}
}

// Counter returns a counter under the scope's prefix.
func (s *Scope) Counter(name string) *Counter {
	return s.r.Counter(s.prefix + "." + name)
}

// Gauge returns a gauge under the scope's prefix.
func (s *Scope) Gauge(name string) *Gauge {
	return s.r.Gauge(s.prefix + "." + name)
}

// Stage resolves the metric bundle of one pipeline stage:
//
//	<scope>.<name>.seconds  histogram of stage duration
//	<scope>.<name>.calls    invocations
//	<scope>.<name>.bytes    payload octets through the stage
//	<scope>.<name>.errors   failed invocations
//
// The full name "<scope>.<name>" is also the stage's trace span name.
// Resolve once (package-level via Lazy, or per struct); the per-call cost
// is then a nil check, two clock reads and a few atomics.
func (s *Scope) Stage(name string) *Stage {
	full := s.prefix + "." + name
	return &Stage{
		name:    full,
		seconds: s.r.Histogram(full + ".seconds"),
		calls:   s.r.Counter(full + ".calls"),
		bytes:   s.r.Counter(full + ".bytes"),
		errors:  s.r.Counter(full + ".errors"),
	}
}

// Stage times one pipeline stage. A stage from a nil registry (or a nil
// *Stage) records nothing and never touches the clock, so disabled
// instrumentation costs a nil check.
type Stage struct {
	name    string
	seconds *Histogram
	calls   *Counter
	bytes   *Counter
	errors  *Counter
}

// Name returns the stage's full dotted name ("" on nil).
func (st *Stage) Name() string {
	if st == nil {
		return ""
	}
	return st.name
}

// Pass is one timed run of a stage, opened by Stage.Start and closed by
// End. The zero Pass records nothing.
type Pass struct {
	st *Stage
	t0 time.Time
}

// Start opens a pass. Without metrics it returns the zero Pass without
// reading the clock.
func (st *Stage) Start() Pass {
	if st == nil || st.seconds == nil {
		return Pass{}
	}
	return Pass{st: st, t0: time.Now()}
}

// End closes the pass: its duration and one call always count; a nil err
// adds n payload bytes (pass 0 when byte throughput is meaningless for the
// stage), a non-nil err counts one error instead.
func (p Pass) End(n int, err error) {
	st := p.st
	if st == nil {
		return
	}
	st.seconds.ObserveDuration(time.Since(p.t0))
	st.calls.Inc()
	if err != nil {
		st.errors.Inc()
	} else if n > 0 {
		st.bytes.Add(uint64(n))
	}
}
