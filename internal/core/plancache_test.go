package core

import (
	"errors"
	"runtime"
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

func TestFrameLayoutMemoized(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}
	plan, err := CachedPlan(wifi.ConventionIEEE, mode, 2)
	if err != nil {
		t.Fatalf("CachedPlan: %v", err)
	}
	l1, err := plan.FrameLayout(4)
	if err != nil {
		t.Fatalf("FrameLayout: %v", err)
	}
	l2, err := plan.FrameLayout(4)
	if err != nil {
		t.Fatalf("FrameLayout: %v", err)
	}
	if l1 != l2 {
		t.Fatal("same symbol count returned distinct layout instances")
	}
	l3, err := plan.FrameLayout(5)
	if err != nil {
		t.Fatalf("FrameLayout: %v", err)
	}
	if l3 == l1 {
		t.Fatal("different symbol counts share a layout instance")
	}
}

// TestFrameLayoutConcurrent grows one fresh plan from many goroutines
// at once, each requesting frame lengths and masked frames in its own
// order, and checks every layout against the planner's from-scratch
// layout of that length: growth is serialized and published whole, and
// reads take no lock (run it under -race). Once the layout covers a
// length, concurrent readers share one header and one backing array.
func TestFrameLayoutConcurrent(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}
	plan, err := NewPlan(wifi.ConventionIEEE, mode, CH4)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	const longest = 48
	want := make([]string, longest+1)
	for n := 1; n <= longest; n++ {
		l, err := LayoutForConstraints(plan.symbolConstraints, n, 2*mode.DataBitsPerSymbol())
		if err != nil {
			t.Fatal(err)
		}
		want[n] = layoutString(l)
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
				if layoutString(l) != want[n] {
					t.Errorf("goroutine %d: FrameLayout(%d) is not the planner's layout", g, n)
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

	layouts := make([]*FrameLayout, 16)
	for i := range layouts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := plan.FrameLayout(longest / 2)
			if err != nil {
				t.Errorf("FrameLayout: %v", err)
				return
			}
			layouts[i] = l
		}(i)
	}
	wg.Wait()
	whole, err := plan.FrameLayout(longest)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range layouts {
		if l != layouts[0] || &l.Positions[0] != &whole.Positions[0] || &l.Clusters[0] != &whole.Clusters[0] {
			t.Fatalf("reader %d does not share the plan's one layout", i)
		}
	}
}

// retainedHeap returns the live heap after two collections.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPlanMemoryBounded holds what one plan keeps to a small bound
// whatever the air asks of it: a sender picks the plan with the SIGNAL
// field and the frame length with LENGTH, and the ook-ctc decoder strips
// under any of the 1,024 masks of its 320-symbol frame (ten groups of 32
// symbols) before the CRC check; a mode whose longest PSDU is shorter
// gets ten groups of that length. Lengths arrive in increasing order,
// the order in which headers that kept superseded arrays alive would
// retain the most.
func TestPlanMemoryBounded(t *testing.T) {
	for _, mode := range []wifi.Mode{{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, {Modulation: wifi.QAM64, CodeRate: wifi.Rate34}} {
		plan, err := NewPlan(wifi.ConventionIEEE, mode, CH4)
		if err != nil {
			t.Fatal(err)
		}
		longest := wifi.NumDataSymbols(mode, wifi.MaxPSDULength)
		nSym := min(320, longest)
		data := make([]bits.Bit, nSym*mode.DataBitsPerSymbol())
		mask := make([]bool, nSym)
		before := retainedHeap()
		for n := 1; n <= longest; n++ {
			if _, err := plan.FrameLayout(n); err != nil {
				t.Fatalf("%v: FrameLayout(%d): %v", mode, n, err)
			}
		}
		for m := 0; m < 1<<10; m++ {
			for s := range mask {
				mask[s] = m>>min(s/(nSym/10), 9)&1 == 0
			}
			if _, err := StripMaskedPayload(plan, mask, data); !errors.Is(err, ErrExtraBitLayout) {
				t.Fatalf("%v: mask %#x: strip of an all-zero frame gave %v", mode, m, err)
			}
		}
		kept := int64(retainedHeap()) - int64(before)
		runtime.KeepAlive(plan)
		t.Logf("%v: the plan keeps %d kB", mode, kept>>10)
		if kept > 1<<20 {
			t.Errorf("%v: the plan keeps %.1f MiB after every length and mask, want at most 1 MiB", mode, float64(kept)/(1<<20))
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
	// Reuse one result across several payloads; the last pass must still
	// match a fresh Encode bit for bit.
	var res EncodeResult
	for round := 0; round < 3; round++ {
		if err := enc.EncodeTo(payload, &res); err != nil {
			t.Fatalf("EncodeTo round %d: %v", round, err)
		}
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
