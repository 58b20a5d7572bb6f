// Package trace is a slim stand-in for sledzig/internal/obs/trace: spanpair
// matches span types by (package name, type name), so the fixture only
// needs the same shape.
package trace

// Stage stands in for *obs.Stage, the probe Begin opens.
type Stage struct{}

type Frame struct{}

func Start(kind string) *Frame { return &Frame{} }

func (f *Frame) Begin(st *Stage) Mark { return Mark{} }

func (f *Frame) Finish(err error) {}

type Mark struct{}

func (m Mark) End(n int, err error) {}
