package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sledzig/internal/bits"
	"sledzig/internal/wifi"
)

// oracleAssembleMaskedFrame is AssembleMaskedFrame as it stood before
// masked frames ran the encoder's assembler: a layout planned from
// scratch for the mask, its own logical, extra-mask and physical streams
// at one bit per element, an allocating scramble, then the solve and its
// verification. The frame wrap wifi.Transmitter.FrameFromScrambled did is
// inlined at the end; the frame's encoder input is returned beside it,
// at one bit per element, as the old frame held it.
func oracleAssembleMaskedFrame(plan *Plan, mask []bool, payload []byte, seed uint8) (*wifi.Frame, []bits.Bit, spelledLayout, error) {
	layout, err := plannedMaskedLayout(plan, mask)
	if err != nil {
		return nil, nil, layout, err
	}
	nSym := len(mask)
	nDBPS := plan.Mode.DataBitsPerSymbol()
	total := nSym * nDBPS

	capacity := total - len(layout.positions) - serviceBits - tailBits
	if need := 8 * (headerOctets + len(payload)); need > capacity || len(payload) == 0 {
		return nil, nil, layout, fmt.Errorf("core: payload of %d octets outside the %d-bit capacity of a %d-symbol masked frame: %w",
			len(payload), capacity, nSym, ErrPayloadSize)
	}

	// Logical stream: SERVICE zeros, length header, payload, zero pad.
	logical := make([]bits.Bit, total-len(layout.positions))
	n := serviceBits
	header := [headerOctets]byte{byte(len(payload)), byte(len(payload) >> 8)}
	n += copy(logical[n:], bits.FromBytes(header[:]))
	copy(logical[n:], bits.FromBytes(payload))

	// Physical unscrambled stream: logical bits at non-extra positions.
	extra := make([]bool, total)
	for _, p := range layout.positions {
		if p < 0 || p >= total {
			return nil, nil, layout, fmt.Errorf("core: extra position %d outside frame of %d bits: %w", p, total, ErrExtraBitLayout)
		}
		extra[p] = true
	}
	u := make([]bits.Bit, total)
	li := 0
	for i := range u {
		if !extra[i] {
			u[i] = logical[li]
			li++
		}
	}
	if seed == 0 {
		seed = wifi.DefaultScramblerSeed
	}
	x, err := wifi.ScrambleWithSeed(u, seed)
	if err != nil {
		return nil, nil, layout, err
	}
	// Zero the placeholders (scrambling flipped some to the scrambler
	// sequence; the solver assumes unknowns start at zero), then solve.
	for _, p := range layout.positions {
		x[p] = 0
	}
	if err := oracleSolve(x, layout.clusters); err != nil {
		return nil, nil, layout, err
	}
	signalledLength := (total - serviceBits - tailBits) / 8
	if err := plan.Mode.Validate(); err != nil {
		return nil, nil, layout, err
	}
	if len(x) == 0 || len(x)%nDBPS != 0 {
		return nil, nil, layout, fmt.Errorf("wifi: scrambled stream length %d not a positive multiple of N_DBPS %d", len(x), nDBPS)
	}
	if signalledLength < 1 || signalledLength > wifi.MaxPSDULength {
		return nil, nil, layout, fmt.Errorf("wifi: signalled length %d out of range [1, %d]", signalledLength, wifi.MaxPSDULength)
	}
	return &wifi.Frame{
		Mode:       plan.Mode,
		Convention: plan.Convention,
		PSDULength: signalledLength,
		Terminated: false,
		NumSymbols: len(x) / nDBPS,
	}, x, layout, nil
}

// oracleSolve is the cluster solve as it stood before assembly worked in
// packed octets: per cluster, a Gauss-Jordan elimination over an
// augmented matrix at one bit per element, on the stream x at one bit per
// element; then every pinned output is re-checked.
func oracleSolve(x []bits.Bit, clusters []Cluster) error {
	output := func(eq Constraint) bits.Bit {
		var window uint32
		for d := 0; d < wifi.ConstraintLength; d++ {
			if idx := eq.Step() - d; idx >= 0 && idx < len(x) {
				window |= uint32(x[idx]&1) << d
			}
		}
		y0, y1 := wifi.EncodeStep(window)
		if eq.MotherIndex%2 == 0 {
			return y0
		}
		return y1
	}
	for _, cl := range clusters {
		e := len(cl.Equations)
		rows := make([][]bits.Bit, e)
		for r, eq := range cl.Equations {
			rows[r] = make([]bits.Bit, e+1)
			for c, p := range cl.Positions {
				if d := eq.Step() - p; d >= 0 && d < wifi.ConstraintLength {
					g0, g1 := generatorCoeff(d)
					rows[r][c] = g0
					if eq.MotherIndex%2 != 0 {
						rows[r][c] = g1
					}
				}
			}
			rows[r][e] = eq.Value ^ output(eq)
		}
		for col := 0; col < e; col++ {
			pivot := -1
			for r := col; r < e; r++ {
				if rows[r][col] == 1 {
					pivot = r
					break
				}
			}
			if pivot < 0 {
				return fmt.Errorf("singular cluster system at column %d: %w", col, ErrConstraintUnsatisfied)
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
	for _, cl := range clusters {
		for _, eq := range cl.Equations {
			if output(eq) != eq.Value {
				return fmt.Errorf("constraint at mother index %d unsatisfied: %w", eq.MotherIndex, ErrConstraintUnsatisfied)
			}
		}
	}
	return nil
}

// oracleTransmitBits is the transmit-bit stream EncodeTo computed eagerly
// before TransmitBits became a method: the solved encoder input
// descrambled with the frame's seed into the result's own buffer.
func oracleTransmitBits(x []bits.Bit, seed uint8) ([]bits.Bit, error) {
	transmitBits := make([]bits.Bit, len(x))
	if err := wifi.ScrambleWithSeedInto(transmitBits, x, seed); err != nil {
		return nil, err
	}
	return transmitBits, nil
}

// sameFrame reports the first field in which got differs from want, whose
// encoder input is wantBits.
func sameFrame(got, want *wifi.Frame, wantBits []bits.Bit) error {
	switch {
	case got.Mode != want.Mode || got.Convention != want.Convention:
		return fmt.Errorf("mode/convention %v/%v, want %v/%v", got.Mode, got.Convention, want.Mode, want.Convention)
	case got.PSDULength != want.PSDULength:
		return fmt.Errorf("PSDULength %d, want %d", got.PSDULength, want.PSDULength)
	case got.NumSymbols != want.NumSymbols:
		return fmt.Errorf("NumSymbols %d, want %d", got.NumSymbols, want.NumSymbols)
	case got.Terminated != want.Terminated:
		return fmt.Errorf("Terminated %v, want %v", got.Terminated, want.Terminated)
	case !bits.Equal(got.ScrambledBits(), wantBits):
		return fmt.Errorf("ScrambledBits differ (%d vs %d bits)", len(got.ScrambledBits()), len(wantBits))
	}
	return nil
}

// TestAssemblerMatchesOracles holds the shared assembler to the code it
// replaced, for both conventions, every pinnable mode and all four
// channels, with random masks, payloads and seeds: masked frames against
// the old masked assembler, whose layout it planned from scratch,
// over-capacity payloads to the same typed error, and SledZig frames
// against the old assembler's all-true-mask frame of the same length,
// with TransmitBits() against the old eager stream.
func TestAssemblerMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pinnable := 0
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		for mod := wifi.BPSK; mod <= wifi.QAM256; mod++ {
			for rate := wifi.Rate12; rate <= wifi.Rate56; rate++ {
				mode := wifi.Mode{Modulation: mod, CodeRate: rate}
				for _, ch := range AllChannels() {
					// BPSK and QPSK points all have one power: nothing to pin.
					plan, err := NewPlan(conv, mode, ch)
					if mod < wifi.QAM16 {
						if err == nil {
							t.Fatalf("%v %v %v: NewPlan accepted an unpinnable mode", conv, mode, ch)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%v %v %v: %v", conv, mode, ch, err)
					}
					pinnable++
					name := fmt.Sprintf("%v %v %v", conv, mode, ch)
					for trial := 0; trial < 2; trial++ {
						checkMaskedAgainstOracle(t, name, rng, plan)
					}
					checkEncodeAgainstOracle(t, name, rng, plan)
				}
			}
		}
	}
	if pinnable != 2*3*4*4 {
		t.Fatalf("checked %d (convention, mode, channel) plans, want %d", pinnable, 2*3*4*4)
	}
}

func checkMaskedAgainstOracle(t *testing.T, name string, rng *rand.Rand, plan *Plan) {
	t.Helper()
	nDBPS := plan.Mode.DataBitsPerSymbol()
	var mask []bool
	maxPayload := 0
	for maxPayload < 1 {
		mask = make([]bool, 2+rng.Intn(39))
		for i := range mask {
			mask[i] = rng.Intn(2) == 0
		}
		layout, err := pinnedLayout(plan, mask)
		if err != nil {
			t.Fatalf("%s: pinnedLayout: %v", name, err)
		}
		maxPayload = (len(mask)*nDBPS-len(layout.positions)-serviceBits-tailBits)/8 - headerOctets
	}
	seed := uint8(rng.Intn(128))
	payload := bits.RandomBytes(rng, 1+rng.Intn(maxPayload))

	got, err := AssembleMaskedFrame(plan, mask, payload, seed)
	if err != nil {
		t.Fatalf("%s: AssembleMaskedFrame: %v", name, err)
	}
	want, wantBits, wantLayout, err := oracleAssembleMaskedFrame(plan, mask, payload, seed)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if err := sameFrame(got, want, wantBits); err != nil {
		t.Fatalf("%s: masked frame (%d symbols, seed %d): %v", name, len(mask), seed, err)
	}
	if gotLayout, err := pinnedLayout(plan, mask); err != nil || layoutString(gotLayout) != layoutString(wantLayout) {
		t.Fatalf("%s: masked frame solved a different layout than the oracle (%v)", name, err)
	}

	tooBig := make([]byte, maxPayload+1)
	_, gerr := AssembleMaskedFrame(plan, mask, tooBig, seed)
	_, _, _, werr := oracleAssembleMaskedFrame(plan, mask, tooBig, seed)
	if !errors.Is(gerr, ErrPayloadSize) || !errors.Is(werr, ErrPayloadSize) || gerr.Error() != werr.Error() {
		t.Fatalf("%s: over-capacity payload: got %v, oracle %v", name, gerr, werr)
	}
}

func checkEncodeAgainstOracle(t *testing.T, name string, rng *rand.Rand, plan *Plan) {
	t.Helper()
	seed := uint8(rng.Intn(128))
	payload := bits.RandomBytes(rng, 1+rng.Intn(300))
	enc := &Encoder{Plan: plan, Seed: seed}
	res, err := enc.Encode(payload)
	if err != nil {
		t.Fatalf("%s: Encode: %v", name, err)
	}
	mask := make([]bool, plan.NumSymbols(len(payload)))
	for i := range mask {
		mask[i] = true
	}
	want, wantBits, wantLayout, err := oracleAssembleMaskedFrame(plan, mask, payload, seed)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if err := sameFrame(res.Frame, want, wantBits); err != nil {
		t.Fatalf("%s: SledZig frame (seed %d): %v", name, seed, err)
	}
	gotLayout, err := frameLayout(plan, len(mask))
	if err != nil || layoutString(gotLayout) != layoutString(wantLayout) {
		t.Fatalf("%s: solved layout differs from the oracle's (%v)", name, err)
	}
	if res.Layout.NumSymbols != len(mask) || !slices.Equal(res.Layout.Positions, wantLayout.positions) {
		t.Fatalf("%s: result layout differs from the oracle's", name)
	}
	if l, err := plan.FrameLayout(len(mask)); err != nil || l.NumSymbols != len(mask) || !slices.Equal(l.Positions, wantLayout.positions) {
		t.Fatalf("%s: the plan's layout of %d symbols differs from the oracle's (%v)", name, len(mask), err)
	}
	resolved := seed
	if resolved == 0 {
		resolved = wifi.DefaultScramblerSeed
	}
	if res.Seed != resolved {
		t.Fatalf("%s: result seed %#x, want %#x", name, res.Seed, resolved)
	}
	wantTB, err := oracleTransmitBits(wantBits, resolved)
	if err != nil {
		t.Fatalf("%s: oracle transmit bits: %v", name, err)
	}
	if !bits.Equal(res.TransmitBits(), wantTB) {
		t.Fatalf("%s: TransmitBits() differs from the eager stream", name)
	}
}

// TestFrameWalksDoNotAllocate pins what an ook-ctc frame asks of its
// plan on every encode and decode at zero allocations: locating a masked
// frame's extra bits on the plan's tile. Stripping a masked frame, or
// decoding a 3,000-octet SledZig frame, allocates only its payload.
func TestFrameWalksDoNotAllocate(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}
	plan, err := NewPlan(wifi.ConventionIEEE, mode, CH2)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, 320)
	for i := range mask {
		mask[i] = i/32%2 == 0
	}
	frame, err := AssembleMaskedFrame(plan, mask, []byte("masked"), 0)
	if err != nil {
		t.Fatal(err)
	}
	dataBits := frame.ScrambledBits()
	if err := wifi.ScrambleWithSeedInto(dataBits, dataBits, wifi.DefaultScramblerSeed); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if p, err := StripMaskedPayload(plan, mask, dataBits); err != nil || string(p) != "masked" {
			t.Fatalf("StripMaskedPayload: %q, %v", p, err)
		}
	}); avg != 1 {
		t.Errorf("StripMaskedPayload allocates %.1f times, want 1 (the payload)", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := plan.frame(len(mask), mask); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("a masked frame's extra bits allocate %.1f times, want 0", avg)
	}

	res, err := (&Encoder{Plan: plan}).Encode(make([]byte, 3000))
	if err != nil {
		t.Fatal(err)
	}
	rx := &wifi.RxResult{Mode: mode, DataBits: res.TransmitBits()}
	if avg := testing.AllocsPerRun(20, func() {
		if p, err := (Decoder{Convention: wifi.ConventionIEEE}).Decode(rx, CH2); err != nil || len(p) != 3000 {
			t.Fatalf("Decode: %d octets, %v", len(p), err)
		}
	}); avg != 1 {
		t.Errorf("Decode allocates %.1f times, want 1 (the payload)", avg)
	}
}
