package core

import (
	"cmp"
	"fmt"
	"sync"

	"sledzig/internal/bits"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

const (
	serviceBits = 16
	tailBits    = 6
	// headerOctets prefix the payload with its length (little-endian
	// uint16) inside the SledZig framing, so the receiver can recover the
	// original payload boundary after stripping extra bits.
	headerOctets = 2
)

// Encoder produces SledZig WiFi frames: standard-format PPDUs whose
// payload bits are chosen so the OFDM subcarriers overlapping the plan's
// ZigBee channel always carry the lowest-power constellation points.
type Encoder struct {
	Plan *Plan
	// Seed is the scrambler seed (0 selects wifi.DefaultScramblerSeed).
	Seed uint8
	// Trace, when non-nil, receives one child span per encode stage
	// (core.encode.layout → core.encode.scramble → core.encode.solve →
	// core.encode.verify) and is propagated to the produced wifi.Frame so
	// waveform synthesis lands in the same trace. A nil Trace costs one
	// nil check per stage.
	Trace *trace.Frame
}

// EncodeResult carries the assembled frame plus the artifacts a caller may
// want to inspect or feed to a stock transmitter.
type EncodeResult struct {
	// Frame is ready for OFDM modulation (wifi.Frame.Waveform).
	Frame *wifi.Frame
	// Seed is the scrambler seed the frame was scrambled with, with 0
	// already resolved to wifi.DefaultScramblerSeed.
	Seed uint8
	// Layout records the extra-bit positions of this frame.
	Layout *FrameLayout
	// PayloadLength is the original payload size in octets.
	PayloadLength int
}

// TransmitBits returns the unscrambled DATA-field bit stream — what one
// would feed a completely standard 802.11 transmitter (which then
// scrambles, codes, interleaves and maps it) to obtain the same
// waveform. This is the paper's "transmit bits". Each call unpacks the
// frame's encoder input into a fresh slice and descrambles it there; it
// returns nil for a result no encode has filled.
func (r *EncodeResult) TransmitBits() []bits.Bit {
	if r.Frame == nil {
		return nil
	}
	tb := r.Frame.ScrambledBits()
	// Only an unfilled result has seed 0, which the scrambler rejects.
	if wifi.ScrambleWithSeedInto(tb, tb, r.Seed) != nil {
		return nil
	}
	return tb
}

// MaxPayload returns the largest payload (octets) a frame of nSymbols can
// carry under the plan.
func (e *Encoder) MaxPayload(nSymbols int) int {
	capacity := nSymbols*e.Plan.EffectiveDataBitsPerSymbol() - serviceBits - tailBits
	return capacity/8 - headerOctets
}

// NumSymbols returns the frame size in OFDM symbols for a payload of
// length octets.
func (e *Encoder) NumSymbols(length int) int {
	needed := serviceBits + 8*(headerOctets+length) + tailBits
	eff := e.Plan.EffectiveDataBitsPerSymbol()
	return (needed + eff - 1) / eff
}

// Encode builds the SledZig frame for payload into a fresh result: one
// allocation holds the result and its frame, one the frame's packed
// encoder input. Batch and streaming callers that can recycle results
// should use EncodeTo.
func (e *Encoder) Encode(payload []byte) (*EncodeResult, error) {
	box := new(struct {
		res   EncodeResult
		frame wifi.Frame
	})
	box.res.Frame = &box.frame
	if err := e.EncodeTo(payload, &box.res); err != nil {
		return nil, err
	}
	return &box.res, nil
}

// encodeScratch holds an assembly's working bit streams, one bit per
// element, pooled so steady-state encoding allocates nothing for them:
// the logical stream, and the physical stream that is scrambled in place
// into the encoder input the solver completes.
type encodeScratch struct {
	logical []bits.Bit
	x       []bits.Bit
}

var encodeScratchPool = sync.Pool{New: func() any { return new(encodeScratch) }}

// EncodeTo builds the SledZig frame for payload into res, reusing res's
// Frame and its packed encoder input when their capacity suffices. On
// success res is fully overwritten; on error its contents are
// unspecified. The caller owns res until the next EncodeTo with the same
// res — results handed to other goroutines must not be reused.
// res.Layout aliases the plan's shared, read-only layout. The bit-stream
// outputs are identical to Encode's for the same payload.
//
//sledzig:noalloc
func (e *Encoder) EncodeTo(payload []byte, res *EncodeResult) error {
	m := metrics()
	if e.Plan == nil {
		return fmt.Errorf("core: encoder has no plan")
	}
	if res == nil {
		return fmt.Errorf("core: EncodeTo needs a result to fill")
	}
	if len(payload) == 0 || len(payload) > 0xFFFF {
		err := fmt.Errorf("core: payload length %d outside [1, 65535]: %w", len(payload), ErrPayloadSize)
		m.fail(m.failEncoder, "core.encode", "encode_fail.validate", err)
		return err
	}
	mk := e.Trace.Begin(m.encLayout)
	//sledvet:ignore hotalloc a memo miss computes a frame length's layout once per plan; every later frame of that length reads the memo
	layout, err := e.Plan.FrameLayout(e.NumSymbols(len(payload)))
	mk.End(0, err)
	if err != nil {
		m.fail(m.failEncoder, "core.encode", "encode_fail.layout", err)
		return err
	}
	if err := assemble(e.Plan, layout, payload, e.Seed, e.Trace, res); err != nil {
		return err
	}
	m.encFrames.Inc()
	m.encPayload.Add(uint64(len(payload)))
	return nil
}

// assemble builds the frame of layout.NumSymbols OFDM symbols carrying
// payload into res, reusing res.Frame and its packed encoder input when
// present: the one assembly pipeline behind SledZig frames (EncodeTo) and
// masked frames (AssembleMaskedFrame). It solves in a pooled stream at one
// bit per element and packs the result into the frame once. seed 0
// selects wifi.DefaultScramblerSeed; tr receives the scramble, solve and
// verify spans and becomes the frame's trace.
//
//sledzig:noalloc
func assemble(plan *Plan, layout *FrameLayout, payload []byte, seed uint8, tr *trace.Frame, res *EncodeResult) error {
	m := metrics()
	seed = cmp.Or(seed, wifi.DefaultScramblerSeed)
	s := encodeScratchPool.Get().(*encodeScratch)
	defer encodeScratchPool.Put(s)
	x, err := assembleBits(s, layout, plan.Mode.DataBitsPerSymbol(), payload, seed, tr)
	if err != nil {
		return err
	}
	signalled := (len(x) - serviceBits - tailBits) / 8
	if signalled < 1 || signalled > wifi.MaxPSDULength {
		err := fmt.Errorf("core: signalled length %d out of range [1, %d]: %w", signalled, wifi.MaxPSDULength, ErrPayloadSize)
		m.fail(m.failEncoder, "core.encode", "encode_fail.validate", err)
		return err
	}
	if err := plan.Mode.Validate(); err != nil {
		return err
	}
	if res.Frame == nil {
		res.Frame = new(wifi.Frame)
	}
	f := res.Frame
	f.Mode, f.Convention, f.NumSymbols = plan.Mode, plan.Convention, layout.NumSymbols
	f.PSDULength, f.Terminated, f.Trace = signalled, false, tr
	if err := f.SetScrambledBits(x); err != nil {
		return err
	}
	res.Seed = seed
	res.Layout = layout
	res.PayloadLength = len(payload)
	return nil
}

// AssembleBits runs the assembly's bit pipeline for a frame format other
// than the 20 MHz one (the 40 MHz extension): it returns the scrambled
// encoder-input stream of layout.NumSymbols symbols of nDBPS bits that
// carries payload under the SledZig length-header framing, with layout's
// extra bits solved and verified, as a fresh slice at one bit per
// element. seed 0 selects wifi.DefaultScramblerSeed.
func AssembleBits(layout *FrameLayout, nDBPS int, payload []byte, seed uint8) ([]bits.Bit, error) {
	s := encodeScratchPool.Get().(*encodeScratch)
	defer encodeScratchPool.Put(s)
	x, err := assembleBits(s, layout, nDBPS, payload, seed, nil)
	if err != nil {
		return nil, err
	}
	return bits.Clone(x), nil
}

// assembleBits is the bit half of the frame assembly, working in s. It
// builds the logical stream (SERVICE zeros, length header, payload, zero
// padding up to the non-extra capacity), spreads it over the physical
// stream with zero placeholders at layout's extra positions, scrambles
// that in place (grown to layout.NumSymbols*nDBPS bits), zeroes the
// placeholders again and solves and verifies the extra bits. It returns
// the encoder input, which aliases s.x. seed 0 selects
// wifi.DefaultScramblerSeed; tr receives the scramble, solve and verify
// spans.
//
//sledzig:noalloc
func assembleBits(s *encodeScratch, layout *FrameLayout, nDBPS int, payload []byte, seed uint8, tr *trace.Frame) ([]bits.Bit, error) {
	m := metrics()
	total := layout.NumSymbols * nDBPS
	pos := layout.Positions
	if len(pos) >= total {
		return nil, fmt.Errorf("core: layout consumes the whole frame")
	}
	// Positions ascend strictly (newFrameLayout checks), so bounding the
	// ends bounds them all.
	if len(pos) > 0 && (pos[0] < 0 || pos[len(pos)-1] >= total) {
		return nil, fmt.Errorf("core: extra positions [%d, %d] outside frame of %d bits: %w", pos[0], pos[len(pos)-1], total, ErrExtraBitLayout)
	}
	capacity := total - len(pos)
	if need := serviceBits + 8*(headerOctets+len(payload)) + tailBits; need > capacity {
		return nil, fmt.Errorf("core: internal error: logical stream %d exceeds capacity %d", need, capacity)
	}

	s.logical = bits.Grow(s.logical, capacity)
	logical := s.logical
	clear(logical)
	header := [headerOctets]byte{byte(len(payload)), byte(len(payload) >> 8)}
	n := serviceBits
	n += bits.CopyBytes(logical[n:], header[:])
	bits.CopyBytes(logical[n:], payload)

	s.x = bits.Grow(s.x, total)
	x := s.x
	pi, li := 0, 0
	for i := range x {
		if pi < len(pos) && pos[pi] == i {
			x[i] = 0
			pi++
			continue
		}
		x[i] = logical[li]
		li++
	}

	// Scramble, then solve the extra bits in the scrambled (encoder-input)
	// domain.
	mk := tr.Begin(m.encScramble)
	err := wifi.ScrambleWithSeedInto(x, x, cmp.Or(seed, wifi.DefaultScramblerSeed))
	mk.End(len(payload), err)
	if err != nil {
		return nil, err
	}
	// Scrambling flipped some placeholders to the scrambler sequence; the
	// solver assumes unknowns start at zero.
	for _, p := range pos {
		x[p] = 0
	}
	mk = tr.Begin(m.encSolve)
	err = solveClusters(x, layout.Clusters)
	mk.End(0, err)
	if err != nil {
		m.fail(m.failEncoder, "core.encode", "encode_fail.solve", err)
		return nil, err
	}
	mk = tr.Begin(m.encVerify)
	err = verifyConstraints(x, layout.Clusters)
	mk.End(0, err)
	if err != nil {
		m.fail(m.failEncoder, "core.encode", "encode_fail.verify", err)
		return nil, err
	}
	return x, nil
}

// solveScratch backs the augmented matrices of solveClusters; a frame
// solves hundreds of small clusters, so the backing is pooled rather than
// reallocated per cluster.
type solveScratch struct {
	rows  [][]bits.Bit
	cells []bits.Bit
}

var solveScratchPool = sync.Pool{New: func() any { return new(solveScratch) }}

// solveClusters determines the extra bits in the scrambled stream x so
// every cluster's pinned encoder outputs hold. Clusters are processed in
// order; each is a small GF(2) linear solve.
//
//sledzig:noalloc
func solveClusters(x []bits.Bit, clusters []Cluster) error {
	s := solveScratchPool.Get().(*solveScratch)
	defer solveScratchPool.Put(s)
	for _, cl := range clusters {
		e := len(cl.Equations)
		w := e + 1
		// Augmented matrix over the cluster's unknown positions, carved
		// out of the pooled flat backing.
		if cap(s.rows) < e {
			s.rows = make([][]bits.Bit, e)
		}
		if cap(s.cells) < e*w {
			s.cells = make([]bits.Bit, e*w)
		}
		rows := s.rows[:e]
		cells := s.cells[:e*w]
		clear(cells)
		for r := range rows {
			rows[r] = cells[r*w : (r+1)*w]
		}
		for r, eq := range cl.Equations {
			for c, p := range cl.Positions {
				d := eq.Step() - p
				if d >= 0 && d < wifi.ConstraintLength {
					g0, g1 := generatorCoeff(d)
					if eq.MotherIndex%2 == 0 {
						rows[r][c] = g0
					} else {
						rows[r][c] = g1
					}
				}
			}
			// Constant term: encoder output with unknowns at zero.
			rows[r][e] = eq.Value ^ encodeOutput(x, eq)
		}
		// Gauss-Jordan.
		for col := 0; col < e; col++ {
			pivot := -1
			for r := col; r < e; r++ {
				if rows[r][col] == 1 {
					pivot = r
					break
				}
			}
			if pivot < 0 {
				return fmt.Errorf("core: singular cluster system at column %d: %w", col, ErrConstraintUnsatisfied)
			}
			rows[col], rows[pivot] = rows[pivot], rows[col]
			for r := 0; r < e; r++ {
				if r != col && rows[r][col] == 1 {
					for cc := col; cc <= e; cc++ {
						rows[r][cc] ^= rows[col][cc]
					}
				}
			}
		}
		for i, p := range cl.Positions {
			x[p] = rows[i][e]
		}
	}
	return nil
}

// encodeOutput computes the mother-code output bit for one constraint
// given the current stream contents.
func encodeOutput(x []bits.Bit, eq Constraint) bits.Bit {
	step := eq.Step()
	var window uint32
	for d := 0; d < wifi.ConstraintLength; d++ {
		idx := step - d
		if idx >= 0 && idx < len(x) {
			window |= uint32(x[idx]&1) << d
		}
	}
	y0, y1 := wifi.EncodeStep(window)
	if eq.MotherIndex%2 == 0 {
		return y0
	}
	return y1
}

// verifyConstraints re-checks every pinned output against the final
// stream — cheap insurance that the solver and the encoder agree.
func verifyConstraints(x []bits.Bit, clusters []Cluster) error {
	for _, cl := range clusters {
		for _, eq := range cl.Equations {
			if got := encodeOutput(x, eq); got != eq.Value {
				return fmt.Errorf("core: constraint at mother index %d unsatisfied (got %d, want %d): %w",
					eq.MotherIndex, got, eq.Value, ErrConstraintUnsatisfied)
			}
		}
	}
	return nil
}
