// Fixture for the spanpair analyzer: spans close on every path.
package a

import "trace"

type job struct {
	tr *trace.Frame
}

func cond() bool { return true }

func register(m trace.Mark)   {}
func adopt(f *trace.Frame)    {}
func sink(ch chan trace.Mark) {}

// Closed on the single path: fine.
func simple(f *trace.Frame) {
	mk := f.Begin(st)
	work()
	mk.End(0, nil)
}

// Deferred close covers all exits.
func deferred(f *trace.Frame) int {
	mk := f.Begin(st)
	defer mk.End(0, nil)
	if cond() {
		return 1
	}
	return 2
}

// Frame from Start, deferred Finish.
func rooted() error {
	tr := trace.Start("decode")
	defer tr.Finish(nil)
	return nil
}

// Early close on the error path, close again on the main path: fine.
func branches(f *trace.Frame) error {
	mk := f.Begin(st)
	if cond() {
		mk.End(0, nil)
		return errFixed
	}
	work()
	mk.End(0, nil)
	return nil
}

// Leak: the early return skips End.
func leaky(f *trace.Frame) error {
	mk := f.Begin(st)
	if cond() {
		return errFixed // want `span "mk" \(opened at line 54\) may reach this return without End`
	}
	mk.End(0, nil)
	return nil
}

// Leak at fall-off.
func leakyEnd(f *trace.Frame) {
	mk := f.Begin(st)
	if cond() {
		mk.End(0, nil)
		return
	}
	work()
} // want `span "mk" \(opened at line 64\) may reach this function end without End`

// A frame without Finish on one path.
func frameLeak() error {
	tr := trace.Start("encode")
	if cond() {
		return errFixed // want `span "tr" \(opened at line 74\) may reach this return without Finish`
	}
	tr.Finish(nil)
	return nil
}

// Discarded results can never be closed.
func discarded(f *trace.Frame) {
	f.Begin(st)     // want `span result discarded: End can never be called`
	_ = f.Begin(st) // want `span result discarded: End can never be called`
}

// Overwriting a live span orphans its End.
func overwrite(f *trace.Frame) {
	mk := f.Begin(st)
	mk = f.Begin(st) // want `span "mk" \(opened at line 90\) may still be open when reassigned`
	mk.End(0, nil)
}

// Escapes hand the obligation to the receiver: all fine here.
func escapes(f *trace.Frame) *job {
	j := &job{tr: trace.Start("decode")} // composite literal owns it
	mk := f.Begin(st)
	register(mk) // passed along
	tr := trace.Start("waveform")
	adopt(tr) // passed along
	return j
}

// Returning the span transfers the obligation to the caller.
func opener(f *trace.Frame) trace.Mark {
	mk := f.Begin(st)
	return mk
}

// A deferred closure close counts as coverage. This is the form the
// pipeline uses: the closure reads the named results at return time.
func deferredClosure(f *trace.Frame) (n int, err error) {
	mk := f.Begin(st)
	defer func() {
		work()
		mk.End(n, err)
	}()
	if cond() {
		return 1, errFixed
	}
	return 2, nil
}

// Crash edges do not bind.
func panics(f *trace.Frame) {
	mk := f.Begin(st)
	if !cond() {
		panic("impossible")
	}
	mk.End(0, nil)
}

// Intentional leaks need a written justification.
func justified(f *trace.Frame) {
	mk := f.Begin(st)
	if cond() {
		mk.End(0, nil)
	}
	//sledvet:ignore spanpair the non-flushed path is closed by the shutdown hook
} // covered by the directive above

var errFixed = errorString("fixed")

var st = &trace.Stage{}

type errorString string

func (e errorString) Error() string { return string(e) }

func work() {}
