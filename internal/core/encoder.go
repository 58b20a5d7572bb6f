package core

import (
	"cmp"
	"fmt"

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
	// Layout lists the frame's extra-bit positions: EncodeTo walks them
	// from the plan's tile into storage the result owns and reuses, and
	// AssembleTo leaves it as it was.
	Layout FrameLayout
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

// Encode builds the SledZig frame for payload into a fresh result: one
// allocation holds the result and its frame, one the frame's packed
// encoder input and one its Layout's positions. Batch and streaming
// callers that can recycle results should use EncodeTo.
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

// EncodeTo builds the SledZig frame for payload into res, reusing res's
// Frame, its packed encoder input and res.Layout's positions when their
// capacity suffices. On success res is fully overwritten; on error its
// contents are unspecified. The caller owns res until the next EncodeTo
// with the same res — results handed to other goroutines must not be
// reused. The bit-stream outputs are identical to Encode's for the same
// payload.
//
//sledzig:noalloc
func (e *Encoder) EncodeTo(payload []byte, res *EncodeResult) error {
	if err := e.AssembleTo(payload, res); err != nil {
		return err
	}
	x := e.Plan.tile.frame(res.Frame.NumSymbols, nil)
	x.fill(&res.Layout)
	return nil
}

// AssembleTo is EncodeTo without the position list: the frame walks the
// plan's tile and res.Layout stays as it was, so a frame costs no memory
// that grows with its length beyond its own encoder input. The codec
// backend and the coexistence profile assemble through it.
//
//sledzig:noalloc
func (e *Encoder) AssembleTo(payload []byte, res *EncodeResult) error {
	m := metrics()
	if e.Plan == nil {
		return fmt.Errorf("core: encoder has no plan")
	}
	if res == nil {
		return fmt.Errorf("core: encoder needs a result to fill")
	}
	if len(payload) == 0 || len(payload) > 0xFFFF {
		err := fmt.Errorf("core: payload length %d outside [1, 65535]: %w", len(payload), ErrPayloadSize)
		m.fail(m.failEncoder, "core.encode", "encode_fail.validate", err)
		return err
	}
	nSym := e.Plan.NumSymbols(len(payload))
	mk := e.Trace.Begin(m.encLayout)
	x := e.Plan.tile.frame(nSym, nil)
	mk.End(0, nil)
	if err := assemble(e.Plan, nSym, &x, payload, e.Seed, e.Trace, res); err != nil {
		return err
	}
	m.encFrames.Inc()
	m.encPayload.Add(uint64(len(payload)))
	return nil
}

// signalledLength returns the PLCP LENGTH of a frame of nSym symbols of
// nDBPS bits: the whole octets between SERVICE and the tail. It fails
// with ErrPayloadSize outside [1, wifi.MaxPSDULength].
func signalledLength(nSym, nDBPS int) (int, error) {
	signalled := (nSym*nDBPS - serviceBits - tailBits) / 8
	if signalled < 1 || signalled > wifi.MaxPSDULength {
		err := fmt.Errorf("core: signalled length %d out of range [1, %d]: %w", signalled, wifi.MaxPSDULength, ErrPayloadSize)
		m := metrics()
		m.fail(m.failEncoder, "core.encode", "encode_fail.validate", err)
		return 0, err
	}
	return signalled, nil
}

// assemble builds the frame of nSym OFDM symbols carrying payload, with
// x's extra bits solved, into res, reusing res.Frame and its packed
// encoder input when present: the one assembly pipeline behind SledZig
// frames (AssembleTo) and masked frames (AssembleMaskedFrame). seed 0
// selects wifi.DefaultScramblerSeed; tr receives the scramble, solve and
// verify spans and becomes the frame's trace. res.Layout is left alone.
//
//sledzig:noalloc
func assemble(plan *Plan, nSym int, x *frameExtras, payload []byte, seed uint8, tr *trace.Frame, res *EncodeResult) error {
	seed = cmp.Or(seed, wifi.DefaultScramblerSeed)
	nDBPS := plan.Mode.DataBitsPerSymbol()
	signalled, err := signalledLength(nSym, nDBPS)
	if err != nil {
		return err
	}
	if err := plan.Mode.Validate(); err != nil {
		return err
	}
	if res.Frame == nil {
		res.Frame = new(wifi.Frame)
	}
	f := res.Frame
	f.Mode, f.Convention, f.NumSymbols = plan.Mode, plan.Convention, nSym
	f.PSDULength, f.Terminated, f.Trace = signalled, false, tr
	octets, err := f.EncoderInput()
	if err != nil {
		return err
	}
	if err := assembleOctets(octets, nSym*nDBPS, x, payload, seed, tr); err != nil {
		return err
	}
	res.Seed = seed
	return nil
}

// AssembleBits runs the assembly's bit pipeline for a frame format other
// than the 20 MHz one (the 40 MHz extension): it returns the scrambled
// encoder-input stream of nSym symbols of t that carries payload under
// the SledZig length-header framing, with the extra bits solved and
// verified, as a fresh slice at one bit per element. seed 0 selects
// wifi.DefaultScramblerSeed.
func AssembleBits(t *Tile, nSym int, payload []byte, seed uint8) ([]bits.Bit, error) {
	total := max(nSym*t.nDBPS, 0)
	octets := make([]byte, (total+7)/8)
	x := t.frame(nSym, nil)
	if err := assembleOctets(octets, total, &x, payload, cmp.Or(seed, wifi.DefaultScramblerSeed), nil); err != nil {
		return nil, err
	}
	return bits.FromBytes(octets)[:total], nil
}

// assembleOctets is the bit half of the frame assembly, in dst, the
// frame's total encoder-input bits packed and zeroed. It writes the
// length header and the payload around x's extra bits (SERVICE, the pad
// and the placeholders stay zero), scrambles the stream, zeroes the
// placeholders again and solves and verifies x's clusters in place. tr
// receives the scramble, solve and verify spans.
//
//sledzig:noalloc
func assembleOctets(dst []byte, total int, x *frameExtras, payload []byte, seed uint8, tr *trace.Frame) error {
	m := metrics()
	if x.count >= total {
		return fmt.Errorf("core: layout consumes the whole frame")
	}
	// Positions ascend strictly (planClusters checks the tile's), so
	// bounding the ends bounds them all.
	if first, _ := x.position(walk{}); x.count > 0 && (first < 0 || x.last >= total) {
		return fmt.Errorf("core: extra positions [%d, %d] outside frame of %d bits: %w", first, x.last, total, ErrExtraBitLayout)
	}
	if need := serviceBits + 8*(headerOctets+len(payload)) + tailBits; need > total-x.count {
		return fmt.Errorf("core: internal error: logical stream %d exceeds capacity %d", need, total-x.count)
	}

	// SERVICE, the length header and the payload, LSB first.
	head := [serviceBits/8 + headerOctets]byte{2: byte(len(payload)), 3: byte(len(payload) >> 8)}
	extra, next := x.position(walk{})
	i := 0 // physical index of the next logical bit
	for n := range len(head) + len(payload) {
		var octet byte
		if n < len(head) {
			octet = head[n]
		} else {
			octet = payload[n-len(head)]
		}
		for range 8 {
			for i == extra {
				i++
				extra, next = x.position(next)
			}
			wifi.SetPackedBit(dst, i, octet&1)
			octet >>= 1
			i++
		}
	}

	// Scramble, then solve the extra bits in the scrambled (encoder-input)
	// domain.
	mk := tr.Begin(m.encScramble)
	err := wifi.ScramblePacked(dst, total, seed)
	mk.End(len(payload), err)
	if err != nil {
		return err
	}
	// Scrambling flipped some placeholders to the scrambler sequence; the
	// solver assumes unknowns start at zero.
	for p, w := x.position(walk{}); p >= 0; p, w = x.position(w) {
		wifi.SetPackedBit(dst, p, 0)
	}
	mk = tr.Begin(m.encSolve)
	var rows [maxClusterEquations]uint64
	for s := 0; s < x.symbols && err == nil; s++ {
		clusters, shift := x.symbolClusters(s)
		for _, cl := range clusters {
			if err = solveCluster(dst, cl, shift, &rows); err != nil {
				break
			}
		}
	}
	mk.End(0, err)
	if err != nil {
		m.fail(m.failEncoder, "core.encode", "encode_fail.solve", err)
		return err
	}
	mk = tr.Begin(m.encVerify)
	for s := 0; s < x.symbols && err == nil; s++ {
		clusters, shift := x.symbolClusters(s)
		err = verifyConstraints(dst, clusters, shift)
	}
	mk.End(0, err)
	if err != nil {
		m.fail(m.failEncoder, "core.encode", "encode_fail.verify", err)
		return err
	}
	return nil
}

// maxClusterEquations bounds the equations of one cluster, so its GF(2)
// system is fixed-size: one uint64 row per equation, one bit per unknown.
// The planner refuses larger clusters; shipped plans have at most 4
// equations to a cluster.
const maxClusterEquations = 64

// solveCluster determines the extra bits of cl, shifted shift encoder
// steps, in the packed scrambled stream x so that its pinned encoder
// outputs hold: a Gauss-Jordan elimination over GF(2) in rows, whose row
// r holds equation r's coefficients, bit c for unknown Positions[c], and
// rhs bit r its constant term. The shift moves an equation and its
// unknowns alike, so it leaves the coefficients as they are.
//
//sledzig:noalloc
func solveCluster(x []byte, cl Cluster, shift int, rows *[maxClusterEquations]uint64) error {
	e := len(cl.Equations)
	if e > maxClusterEquations || len(cl.Positions) != e {
		return fmt.Errorf("core: cluster of %d equations and %d unknowns is not solvable in place: %w", e, len(cl.Positions), ErrConstraintUnsatisfied)
	}
	var rhs uint64
	for r, eq := range cl.Equations {
		// Coefficient of position p: generator tap at delay step-p.
		step, taps := eq.Step(), wifi.G0Mask
		if eq.MotherIndex%2 != 0 {
			taps = wifi.G1Mask
		}
		var row uint64
		for c, p := range cl.Positions {
			if d := uint(step - p); d < wifi.ConstraintLength {
				row |= uint64(taps>>d&1) << c
			}
		}
		rows[r] = row
		// Constant term: encoder output with unknowns at zero.
		rhs |= uint64(eq.Value^encodeOutput(x, eq, shift)) << r
	}
	for col := 0; col < e; col++ {
		pivot := col
		for pivot < e && rows[pivot]>>col&1 == 0 {
			pivot++
		}
		if pivot == e {
			return fmt.Errorf("core: singular cluster system at column %d: %w", col, ErrConstraintUnsatisfied)
		}
		rows[col], rows[pivot] = rows[pivot], rows[col]
		if rhs>>col&1 != rhs>>pivot&1 {
			rhs ^= 1<<col | 1<<pivot
		}
		for r := 0; r < e; r++ {
			if r != col && rows[r]>>col&1 == 1 {
				rows[r] ^= rows[col]
				rhs ^= (rhs >> col & 1) << r
			}
		}
	}
	for i, p := range cl.Positions {
		wifi.SetPackedBit(x, p+shift, bits.Bit(rhs>>i&1))
	}
	return nil
}

// encodeOutput computes the mother-code output bit for one constraint,
// shifted shift encoder steps, in the packed stream x.
func encodeOutput(x []byte, eq Constraint, shift int) bits.Bit {
	y0, y1 := wifi.EncodeStep(wifi.PackedWindow(x, eq.Step()+shift))
	if eq.MotherIndex%2 == 0 {
		return y0
	}
	return y1
}

// verifyConstraints re-checks every pinned output of clusters, shifted
// shift encoder steps, against the final packed stream — cheap insurance
// that the solver and the encoder agree.
func verifyConstraints(x []byte, clusters []Cluster, shift int) error {
	for _, cl := range clusters {
		for _, eq := range cl.Equations {
			if got := encodeOutput(x, eq, shift); got != eq.Value {
				return fmt.Errorf("core: constraint at mother index %d unsatisfied (got %d, want %d): %w",
					eq.MotherIndex+2*shift, got, eq.Value, ErrConstraintUnsatisfied)
			}
		}
	}
	return nil
}
