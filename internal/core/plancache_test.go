package core

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"sledzig/internal/bits"
	"sledzig/internal/wifi"
)

func TestCachedPlanReturnsSameInstance(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}
	p1, err := CachedPlan(wifi.ConventionIEEE, mode, 2)
	if err != nil {
		t.Fatalf("CachedPlan: %v", err)
	}
	p2, err := CachedPlan(wifi.ConventionIEEE, mode, 2)
	if err != nil {
		t.Fatalf("CachedPlan: %v", err)
	}
	if p1 != p2 {
		t.Fatal("same key returned distinct plan instances")
	}
	p3, err := CachedPlan(wifi.ConventionIEEE, mode, 3)
	if err != nil {
		t.Fatalf("CachedPlan: %v", err)
	}
	if p3 == p1 {
		t.Fatal("different channels share a plan instance")
	}
}

func TestCachedPlanMatchesNewPlan(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate34}
	cached, err := CachedPlan(wifi.ConventionPaper, mode, 1)
	if err != nil {
		t.Fatalf("CachedPlan: %v", err)
	}
	fresh, err := NewPlan(wifi.ConventionPaper, mode, 1)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	if cached.EffectiveDataBitsPerSymbol() != fresh.EffectiveDataBitsPerSymbol() {
		t.Fatalf("cached plan diverges from fresh plan: %d vs %d effective bits/symbol",
			cached.EffectiveDataBitsPerSymbol(), fresh.EffectiveDataBitsPerSymbol())
	}
}

func TestCachedPlanConcurrentSingleFlight(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate56}
	const goroutines = 16
	plans := make([]*Plan, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := CachedPlan(wifi.ConventionIEEE, mode, CH1)
			if err != nil {
				t.Errorf("CachedPlan: %v", err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d got a different plan instance", i)
		}
	}
}

func TestCachedPlanCachesErrors(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}
	if _, err := CachedPlan(wifi.ConventionIEEE, mode, 99); err == nil {
		t.Fatal("expected error for invalid channel 99")
	}
	if _, err := CachedPlan(wifi.ConventionIEEE, mode, 99); err == nil {
		t.Fatal("expected cached error for invalid channel 99")
	}
}

// TestFrameLayoutConcurrent walks one fresh plan's tile from many
// goroutines at once, each requesting frame lengths and masked frames in
// its own order, and checks every layout against the planner's
// from-scratch layout of that length: the tile is read-only, so walks
// take no lock (run it under -race).
func TestFrameLayoutConcurrent(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}
	plan, err := NewPlan(wifi.ConventionIEEE, mode, CH4)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	const longest = 48
	want := make([][]int, longest+1)
	for n := 1; n <= longest; n++ {
		_, positions, err := LayoutForConstraints(plan.symbolConstraints, n, 2*mode.DataBitsPerSymbol())
		if err != nil {
			t.Fatal(err)
		}
		want[n] = positions
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < longest; i++ {
				n := 1 + (i*(2*g+1)+g)%longest
				l, err := plan.FrameLayout(n)
				if err != nil {
					t.Errorf("FrameLayout(%d): %v", n, err)
					return
				}
				if l.NumSymbols != n || !slices.Equal(l.Positions, want[n]) {
					t.Errorf("goroutine %d: FrameLayout(%d) does not list the planner's positions", g, n)
					return
				}
				mask := make([]bool, n)
				for s := range mask {
					mask[s] = (s+g)%3 != 0
				}
				got, err := pinnedLayout(plan, mask)
				if err != nil {
					t.Errorf("masked frame of %d symbols: %v", n, err)
					return
				}
				if planned, err := plannedMaskedLayout(plan, mask); err != nil || layoutString(got) != layoutString(planned) {
					t.Errorf("goroutine %d: masked frame of %d symbols differs from its planned layout (%v)", g, n, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// retainedHeap returns the live heap after two collections.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// planBytes builds a plan, runs use on it and returns what dropping the
// plan then frees: the bytes reachable only through it. State the
// process keeps for itself meanwhile (a library's lazily built tables,
// an OS thread the scheduler starts) is live on both sides of the drop.
func planBytes(t *testing.T, mode wifi.Mode, use func(*Plan)) int64 {
	t.Helper()
	plan, err := NewPlan(wifi.ConventionIEEE, mode, CH4)
	if err != nil {
		t.Fatal(err)
	}
	use(plan)
	with := retainedHeap()
	runtime.KeepAlive(plan)
	return int64(with) - int64(retainedHeap())
}

// TestPlanMemoryBounded holds what one plan keeps beyond its tile to 0 B
// whatever the air asks of it: a sender picks the plan with the SIGNAL
// field and the frame length with LENGTH, and the ook-ctc decoder strips
// under any of the 1,024 masks of its 320-symbol frame (ten groups of 32
// symbols) before the CRC check; a mode whose longest PSDU is shorter
// gets ten groups of that length. Masked frames walk the plan's tile, and
// so do encodes of every length up to a 4,095-octet PSDU, which list
// their positions in the result they fill. A plan that has served them
// frees exactly what an unused plan frees. A collection that overlaps a
// new OS thread's start can shift one reading, so a mismatch is measured
// again, twice at most.
func TestPlanMemoryBounded(t *testing.T) {
	for _, mode := range []wifi.Mode{{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, {Modulation: wifi.QAM64, CodeRate: wifi.Rate34}} {
		longest := wifi.NumDataSymbols(mode, wifi.MaxPSDULength)
		nSym := min(320, longest)
		data := make([]bits.Bit, nSym*mode.DataBitsPerSymbol())
		mask := make([]bool, nSym)
		strips := func(plan *Plan) {
			for m := 0; m < 1<<10; m++ {
				for s := range mask {
					mask[s] = m>>min(s/(nSym/10), 9)&1 == 0
				}
				if _, err := StripMaskedPayload(plan, mask, data); !errors.Is(err, ErrExtraBitLayout) {
					t.Fatalf("%v: mask %#x: strip of an all-zero frame gave %v", mode, m, err)
				}
			}
		}
		// The longest frame whose every octet a PSDU can signal.
		maxSym := (8*wifi.MaxPSDULength + serviceBits + tailBits) / mode.DataBitsPerSymbol()
		payload := make([]byte, maxSym*mode.DataBitsPerSymbol()/8)
		encodes := func(plan *Plan) {
			var res EncodeResult
			for n := 1; n <= maxSym; n++ {
				if size := plan.MaxPayload(n); size > 0 {
					if err := (&Encoder{Plan: plan}).EncodeTo(payload[:size], &res); err != nil {
						t.Fatalf("%v: EncodeTo of %d octets: %v", mode, size, err)
					}
				}
			}
		}
		masks, kept := int64(math.MaxInt64), int64(math.MaxInt64)
		for try := 0; try < 3 && max(masks, kept) > 0; try++ {
			tile := planBytes(t, mode, func(*Plan) {})
			masks = min(masks, planBytes(t, mode, strips)-tile)
			kept = min(kept, planBytes(t, mode, func(p *Plan) { strips(p); encodes(p) })-tile)
		}
		t.Logf("%v: the plan keeps %d B beyond its tile after the masks, %d B after every length", mode, masks, kept)
		if masks > 0 {
			t.Errorf("%v: the plan keeps %d B beyond its tile after the 1,024 masks, want 0", mode, masks)
		}
		if kept > 0 {
			t.Errorf("%v: the plan keeps %d B beyond its tile after the masks and every length, want 0", mode, kept)
		}
	}
}

func TestEncodeToMatchesEncode(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}
	plan, err := NewPlan(wifi.ConventionIEEE, mode, 2)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	enc := &Encoder{Plan: plan}
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	want, err := enc.Encode(payload)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Reuse one result across several payloads, the longest first; the
	// last pass must still match a fresh Encode bit for bit, and list its
	// own frame's positions, not a longer frame's.
	var res EncodeResult
	for _, p := range [][]byte{make([]byte, 1200), payload[:40], payload} {
		if err := enc.EncodeTo(p, &res); err != nil {
			t.Fatalf("EncodeTo of %d octets: %v", len(p), err)
		}
	}
	if !slices.Equal(res.Layout.Positions, want.Layout.Positions) || res.Layout.NumSymbols != want.Frame.NumSymbols {
		t.Fatalf("reused result lists %d positions of %d symbols, a fresh one %d of %d",
			len(res.Layout.Positions), res.Layout.NumSymbols, len(want.Layout.Positions), want.Frame.NumSymbols)
	}
	if n := want.Frame.NumSymbols * plan.ExtraBitsPerSymbol(); len(want.Layout.Positions) != n {
		t.Fatalf("%d positions, want %d symbols × %d", len(want.Layout.Positions), want.Frame.NumSymbols, plan.ExtraBitsPerSymbol())
	}
	// AssembleTo builds the same frame and lists nothing.
	var bare EncodeResult
	if err := enc.AssembleTo(payload, &bare); err != nil {
		t.Fatalf("AssembleTo: %v", err)
	}
	if !bits.Equal(bare.Frame.ScrambledBits(), want.Frame.ScrambledBits()) || bare.Seed != want.Seed || bare.Layout.Positions != nil {
		t.Fatal("AssembleTo differs from Encode, or listed positions")
	}
	if got, want := res.TransmitBits(), want.TransmitBits(); !bits.Equal(got, want) {
		t.Fatalf("TransmitBits diverge (%d vs %d bits)", len(got), len(want))
	}
	if got, want := res.Frame.ScrambledBits(), want.Frame.ScrambledBits(); !bits.Equal(got, want) {
		t.Fatalf("ScrambledBits diverge (%d vs %d bits)", len(got), len(want))
	}
	if res.Frame.PSDULength != want.Frame.PSDULength || res.Frame.NumSymbols != want.Frame.NumSymbols {
		t.Fatalf("frame header mismatch: %+v vs %+v", res.Frame, want.Frame)
	}
}
