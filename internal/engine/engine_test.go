package engine

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"sledzig/internal/bits"
	"sledzig/internal/codec"
	"sledzig/internal/core"
	"sledzig/internal/wifi"
)

func testConfig(workers int) Config {
	return Config{
		Params: codec.Params{
			Convention: wifi.ConventionIEEE,
			Mode:       wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12},
			Channel:    core.CH2,
		},
		Workers: workers,
	}
}

// testPlan is testConfig's plan, from the process-wide cache.
func testPlan(t *testing.T) *core.Plan {
	t.Helper()
	plan, err := core.CachedPlan(wifi.ConventionIEEE, wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, core.CH2)
	if err != nil {
		t.Fatalf("CachedPlan: %v", err)
	}
	return plan
}

func testPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 40+13*i)
		for j := range p {
			p[j] = byte(i + j*3)
		}
		out[i] = p
	}
	return out
}

func TestEncodeBatchMatchesSequentialEncode(t *testing.T) {
	e, err := New(testConfig(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads := testPayloads(12)
	got, err := e.EncodeBatch(context.Background(), payloads)
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("got %d results for %d payloads", len(got), len(payloads))
	}

	plan, err := core.NewPlan(wifi.ConventionIEEE, wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, core.CH2)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	enc := &core.Encoder{Plan: plan}
	for i, p := range payloads {
		want, err := enc.Encode(p)
		if err != nil {
			t.Fatalf("sequential Encode %d: %v", i, err)
		}
		if got[i] == nil {
			t.Fatalf("result %d is nil", i)
		}
		if got[i].NumSymbols() != want.Frame.NumSymbols || got[i].ExtraBits() != len(want.Layout.Positions) {
			t.Fatalf("payload %d: %d symbols, %d extra bits; sequential %d, %d",
				i, got[i].NumSymbols(), got[i].ExtraBits(), want.Frame.NumSymbols, len(want.Layout.Positions))
		}
		// Byte-identical: compare the full waveforms, which cover the
		// scrambled stream, SIGNAL field and OFDM assembly end to end.
		wantWave, err := want.Frame.Waveform()
		if err != nil {
			t.Fatalf("sequential Waveform %d: %v", i, err)
		}
		gotWave, err := got[i].AppendWaveform(nil, nil)
		if err != nil {
			t.Fatalf("batch Waveform %d: %v", i, err)
		}
		if len(wantWave) != len(gotWave) {
			t.Fatalf("payload %d: waveform length %d != %d", i, len(gotWave), len(wantWave))
		}
		for s := range wantWave {
			if wantWave[s] != gotWave[s] {
				t.Fatalf("payload %d: waveform diverges at sample %d", i, s)
			}
		}
		if !bits.Equal(got[i].TransmitBits(), want.TransmitBits()) {
			t.Fatalf("payload %d: transmit bits diverge", i)
		}
	}
}

// TestEngineSharesCachedPlan checks that engines and codec instances of
// one configuration share the process-wide plan: the first engine's
// encodes put it in the cache, at most once, and every later engine,
// worker and instance finds it there, so the cache does not grow again.
func TestEngineSharesCachedPlan(t *testing.T) {
	// A configuration no other test in the package uses.
	cfg := testConfig(2)
	cfg.Params = codec.Params{Convention: wifi.ConventionPaper, Mode: wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}, Channel: core.CH3}
	before := core.PlanCacheLen()
	e1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e1.Close()
	if _, err := e1.EncodeBatch(context.Background(), testPayloads(6)); err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	first := core.PlanCacheLen()
	if first > before+1 {
		t.Fatalf("one engine added %d plans to the cache", first-before)
	}
	cfg.Workers = 3
	e2, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e2.Close()
	for _, e := range []*Engine{e1, e2} {
		if _, err := e.EncodeBatch(context.Background(), testPayloads(6)); err != nil {
			t.Fatalf("EncodeBatch: %v", err)
		}
	}
	if _, err := codec.New(codecSledZig, cfg.Params); err != nil {
		t.Fatalf("codec.New: %v", err)
	}
	if got := core.PlanCacheLen(); got != first {
		t.Fatalf("the plan cache grew from %d to %d plans after the first engine", first, got)
	}
}

func TestEncodeBatchConcurrentCallers(t *testing.T) {
	e, err := New(testConfig(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	plan := testPlan(t)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			payloads := testPayloads(6)
			res, err := e.EncodeBatch(context.Background(), payloads)
			if err != nil {
				t.Errorf("caller %d: %v", c, err)
				return
			}
			for i, r := range res {
				if r == nil || r.NumSymbols() != plan.NumSymbols(len(payloads[i])) {
					t.Errorf("caller %d: bad result %d", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestEncodeBatchPropagatesEncodeError(t *testing.T) {
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads := testPayloads(3)
	payloads[1] = nil // empty payload is invalid
	_, err = e.EncodeBatch(context.Background(), payloads)
	if err == nil {
		t.Fatal("expected error for empty payload")
	}
	if !errors.Is(err, core.ErrPayloadSize) {
		t.Fatalf("error %v does not unwrap to core.ErrPayloadSize", err)
	}
}

func TestEncodeBatchContextCancel(t *testing.T) {
	cfg := testConfig(1)
	cfg.Queue = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.EncodeBatch(ctx, testPayloads(64))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

func TestStreamDeliversEverything(t *testing.T) {
	e, err := New(testConfig(3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	plan := testPlan(t)
	payloads := testPayloads(20)
	in := make(chan []byte)
	go func() {
		defer close(in)
		for _, p := range payloads {
			in <- p
		}
	}()
	seen := make(map[int]bool)
	for r := range e.Stream(context.Background(), in) {
		if r.Err != nil {
			t.Fatalf("stream result %d: %v", r.Index, r.Err)
		}
		if seen[r.Index] {
			t.Fatalf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
		if got, want := r.Result.NumSymbols(), plan.NumSymbols(len(payloads[r.Index])); got != want {
			t.Fatalf("index %d: %d symbols, want %d", r.Index, got, want)
		}
	}
	if len(seen) != len(payloads) {
		t.Fatalf("delivered %d of %d results", len(seen), len(payloads))
	}
}

func TestStreamContextCancelCloses(t *testing.T) {
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan []byte)
	out := e.Stream(ctx, in)
	in <- bytes.Repeat([]byte{0xA5}, 50)
	cancel()
	// The channel must close even though in never closes.
	for range out {
	}
}

func TestEngineClosedRejectsWork(t *testing.T) {
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.Close()
	e.Close() // idempotent
	_, err = e.EncodeBatch(context.Background(), testPayloads(2))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

func TestNewRejectsInvalidChannel(t *testing.T) {
	cfg := testConfig(1)
	cfg.Params.Channel = 42
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for invalid channel")
	}
}
