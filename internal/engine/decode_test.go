package engine

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"sledzig/internal/core"
	"sledzig/internal/wifi"
)

// testWaveforms encodes n payloads with the engine's own configuration and
// renders their waveforms. Returns the payloads for round-trip checks.
func testWaveforms(t *testing.T, e *Engine, n int) ([][]byte, [][]complex128) {
	t.Helper()
	payloads := testPayloads(n)
	frames, err := e.EncodeBatch(context.Background(), payloads)
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	waves := make([][]complex128, len(frames))
	for i, f := range frames {
		w, err := f.AppendWaveform(nil, nil)
		if err != nil {
			t.Fatalf("Waveform %d: %v", i, err)
		}
		waves[i] = w
	}
	return payloads, waves
}

// TestDecodeBatchMatchesSequentialDecode demands the pooled multi-worker
// decode path produce results identical to a fresh sequential receiver and
// decoder per frame — payload bytes, detected channel, mode, layout
// accounting and per-symbol EVM.
func TestDecodeBatchMatchesSequentialDecode(t *testing.T) {
	e, err := New(testConfig(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads, waves := testWaveforms(t, e, 12)
	got, err := e.DecodeBatch(context.Background(), waves)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != len(waves) {
		t.Fatalf("got %d results for %d waveforms", len(got), len(waves))
	}

	rxr := wifi.Receiver{Seed: wifi.DefaultScramblerSeed, Convention: wifi.ConventionIEEE}
	dec := core.Decoder{Convention: wifi.ConventionIEEE}
	for i, w := range waves {
		rx, err := rxr.Receive(w)
		if err != nil {
			t.Fatalf("sequential Receive %d: %v", i, err)
		}
		payload, ch, err := dec.DecodeAuto(rx)
		if err != nil {
			t.Fatalf("sequential DecodeAuto %d: %v", i, err)
		}
		r := got[i]
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		if !bytes.Equal(r.Payload, payload) {
			t.Fatalf("waveform %d: payload differs from sequential decode", i)
		}
		if !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("waveform %d: payload does not round-trip", i)
		}
		if r.Channel != ch {
			t.Fatalf("waveform %d: channel %v != %v", i, r.Channel, ch)
		}
		if mode := (wifi.Mode{Modulation: r.Modulation, CodeRate: r.CodeRate}); mode != rx.Mode {
			t.Fatalf("waveform %d: mode %v != %v", i, mode, rx.Mode)
		}
		if r.NumSymbols != len(rx.DataPoints) {
			t.Fatalf("waveform %d: %d symbols != %d", i, r.NumSymbols, len(rx.DataPoints))
		}
		wantEVM := wifi.SymbolEVM(rx.Mode.Modulation, rx.DataPoints)
		if len(r.SymbolEVM) != len(wantEVM) {
			t.Fatalf("waveform %d: EVM length %d != %d", i, len(r.SymbolEVM), len(wantEVM))
		}
		for s := range wantEVM {
			if r.SymbolEVM[s] != wantEVM[s] {
				t.Fatalf("waveform %d: EVM[%d] %g != %g", i, s, r.SymbolEVM[s], wantEVM[s])
			}
		}
		plan, err := core.CachedPlan(wifi.ConventionIEEE, rx.Mode, ch)
		if err != nil {
			t.Fatalf("CachedPlan: %v", err)
		}
		var enc core.EncodeResult
		if err := (&core.Encoder{Plan: plan}).EncodeTo(payloads[i], &enc); err != nil {
			t.Fatalf("EncodeTo: %v", err)
		}
		if r.ExtraBits != len(enc.Layout.Positions) {
			t.Fatalf("waveform %d: ExtraBits %d != %d", i, r.ExtraBits, len(enc.Layout.Positions))
		}
	}
}

// TestDecodeBatchResultsAreSelfContained decodes the same waveform set
// twice and verifies the first batch's results survive the second batch
// unchanged — the per-worker recycled buffers must never alias results.
func TestDecodeBatchResultsAreSelfContained(t *testing.T) {
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads, waves := testWaveforms(t, e, 6)
	first, err := e.DecodeBatch(context.Background(), waves)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	snapshots := make([][]byte, len(first))
	for i, r := range first {
		snapshots[i] = append([]byte(nil), r.Payload...)
	}
	// Decode a different ordering to force buffer reuse in every worker.
	shuffled := make([][]complex128, len(waves))
	for i := range waves {
		shuffled[i] = waves[len(waves)-1-i]
	}
	if _, err := e.DecodeBatch(context.Background(), shuffled); err != nil {
		t.Fatalf("second DecodeBatch: %v", err)
	}
	for i, r := range first {
		if !bytes.Equal(r.Payload, snapshots[i]) {
			t.Fatalf("result %d mutated by a later batch", i)
		}
		if !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("result %d no longer matches its payload", i)
		}
	}
}

// TestDecodeBatchConcurrentWithEncode mixes encode and decode batches on
// one pool from several goroutines — exercises the shared job queue under
// the race detector.
func TestDecodeBatchConcurrentWithEncode(t *testing.T) {
	e, err := New(testConfig(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads, waves := testWaveforms(t, e, 6)
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, err := e.DecodeBatch(context.Background(), waves)
			if err != nil {
				t.Errorf("DecodeBatch: %v", err)
				return
			}
			for i, r := range res {
				if !bytes.Equal(r.Payload, payloads[i]) {
					t.Errorf("decode result %d wrong", i)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := e.EncodeBatch(context.Background(), payloads); err != nil {
				t.Errorf("EncodeBatch: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestDecodeBatchPropagatesDecodeError feeds one garbage waveform and
// expects the batch to fail with a receive error naming its index.
func TestDecodeBatchPropagatesDecodeError(t *testing.T) {
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	_, waves := testWaveforms(t, e, 3)
	waves[1] = make([]complex128, 100) // far too short for a PPDU
	_, err = e.DecodeBatch(context.Background(), waves)
	if err == nil {
		t.Fatal("expected error for garbage waveform")
	}
}

// TestDecodeStreamDeliversEverything mirrors the encode stream test.
func TestDecodeStreamDeliversEverything(t *testing.T) {
	e, err := New(testConfig(3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	payloads, waves := testWaveforms(t, e, 15)
	in := make(chan []complex128)
	go func() {
		defer close(in)
		for _, w := range waves {
			in <- w
		}
	}()
	seen := make(map[int]bool)
	for r := range e.DecodeStream(context.Background(), in) {
		if r.Err != nil {
			t.Fatalf("stream result %d: %v", r.Index, r.Err)
		}
		if seen[r.Index] {
			t.Fatalf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
		if !bytes.Equal(r.Result.Payload, payloads[r.Index]) {
			t.Fatalf("index %d: payload mismatch", r.Index)
		}
	}
	if len(seen) != len(waves) {
		t.Fatalf("delivered %d of %d results", len(seen), len(waves))
	}
}

// TestDecodeBatchClosedEngine verifies decode work is rejected after Close.
func TestDecodeBatchClosedEngine(t *testing.T) {
	e, err := New(testConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, waves := testWaveforms(t, e, 2)
	e.Close()
	_, err = e.DecodeBatch(context.Background(), waves)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}
