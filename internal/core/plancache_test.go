package core

import (
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

func TestFrameLayoutConcurrent(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}
	plan, err := CachedPlan(wifi.ConventionIEEE, mode, 4)
	if err != nil {
		t.Fatalf("CachedPlan: %v", err)
	}
	mask := []bool{true, false, true, true, false, true}
	var wg sync.WaitGroup
	layouts := make([]*FrameLayout, 16)
	masked := make([]*FrameLayout, len(layouts))
	for i := range layouts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := plan.FrameLayout(6)
			if err != nil {
				t.Errorf("FrameLayout: %v", err)
				return
			}
			layouts[i] = l
			if masked[i], err = MaskedLayout(plan, mask); err != nil {
				t.Errorf("MaskedLayout: %v", err)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(layouts); i++ {
		if layouts[i] != layouts[0] || masked[i] != masked[0] {
			t.Fatalf("goroutine %d got a different layout instance", i)
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
