// Fixture for the spanlit analyzer: frame-kind naming discipline.
package a

import "trace"

const kind = "decode"
const prefix = "codec"

func Roots(t *trace.Tracer, dyn string) {
	t.Start("encode")              // allowed: literal, lowercase
	trace.Start(kind)              // allowed: constant
	trace.Start(prefix + ".probe") // allowed: constant concatenation
	trace.Start("waveform")        // allowed

	t.Start(dyn)           // want `compile-time constant`
	trace.Start(dyn)       // want `compile-time constant`
	trace.Start("Encode")  // want `lowercase dotted`
	trace.Start("de code") // want `lowercase dotted`
	trace.Start("de-code") // want `lowercase dotted`
	t.Start("trailing.")   // want `lowercase dotted`
	t.Start(".leading")    // want `lowercase dotted`
}

func Suppressed(t *trace.Tracer, n string) {
	//sledvet:ignore spanlit soak frames are numbered by design
	t.Start("soak." + n)
}

// other proves unrelated Start methods are left alone.
type other struct{}

func (other) Start(kind string) int { return 0 }

func Unrelated(o other, dyn string) {
	o.Start(dyn) // allowed: not the tracer
}
