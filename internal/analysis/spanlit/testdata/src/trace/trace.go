// Package trace is a slim stand-in for sledzig/internal/obs/trace: the
// analyzer matches callees by the defining package's name, so the fixture
// only needs the same shape.
package trace

type Tracer struct{}

func (t *Tracer) Start(kind string) *Frame { return &Frame{} }

func Start(kind string) *Frame { return nil }

type Frame struct{}
