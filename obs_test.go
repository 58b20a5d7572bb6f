package sledzig

import (
	"errors"
	"strings"
	"testing"

	"sledzig/internal/bits"
	"sledzig/internal/core"
	"sledzig/internal/obs"
	"sledzig/internal/wifi"
)

// withMetrics installs a fresh registry for the test and removes it after.
func withMetrics(t *testing.T) *Metrics {
	t.Helper()
	reg := NewMetrics()
	SetDefaultMetrics(reg)
	t.Cleanup(func() { SetDefaultMetrics(nil) })
	return reg
}

// TestRoundTripStageCoverage runs one encode -> waveform -> decode round
// trip with metrics and tracing on and asserts that every pipeline stage
// the instrumentation promises — encoder, Tx PHY, Rx PHY, decoder —
// recorded at least one call and one duration sample, and that spans and
// stages share one name.
func TestRoundTripStageCoverage(t *testing.T) {
	reg := withMetrics(t)
	tr := NewTracer(TraceConfig{SampleEvery: 1})
	SetDefaultTracer(tr)
	t.Cleanup(func() { SetDefaultTracer(nil) })

	enc, err := NewEncoder(Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH2})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := enc.Encode([]byte("stage coverage payload"))
	if err != nil {
		t.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dec.Decode(wave)
	if err != nil {
		t.Fatal(err)
	}
	if res.Channel != CH2 || string(res.Payload) != "stage coverage payload" {
		t.Fatalf("round trip mismatch: channel %v payload %q", res.Channel, res.Payload)
	}

	// The SledZig encoder scrambles in core; run one standard WiFi frame
	// too so the plain Tx scramble stage is exercised as well.
	normal, err := wifi.Transmitter{Mode: wifi.Mode{Modulation: QAM64, CodeRate: Rate34}}.
		Frame([]byte("plain wifi frame"))
	if err != nil {
		t.Fatal(err)
	}
	normalWave, err := normal.Waveform()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(normalWave, AsStandardFrame()); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	stages := []string{
		// SledZig encoder.
		"core.encode.layout", "core.encode.scramble", "core.encode.solve", "core.encode.verify",
		// Tx PHY chain.
		"wifi.tx.scramble", "wifi.tx.encode", "wifi.tx.interleave", "wifi.tx.map", "wifi.tx.ifft",
		// Rx PHY chain (the mirror).
		"wifi.rx.sync", "wifi.rx.signal", "wifi.rx.equalize", "wifi.rx.demap",
		"wifi.rx.deinterleave", "wifi.rx.viterbi", "wifi.rx.descramble",
		// SledZig decoder.
		"core.decode.detect", "core.decode.strip",
	}
	for _, st := range stages {
		if calls := snap.Counters[st+".calls"]; calls == 0 {
			t.Errorf("stage %s: no calls recorded", st)
		}
		if h := snap.Histograms[st+".seconds"]; h.Count == 0 {
			t.Errorf("stage %s: no duration samples", st)
		}
	}
	for _, c := range []string{
		"core.encode.frames", "core.encode.payload_bytes",
		"core.decode.frames", "core.decode.payload_bytes",
		"wifi.tx.frames", "wifi.tx.symbols", "wifi.rx.frames",
	} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %s: still zero after round trip", c)
		}
	}
	// A clean round trip must not count failures.
	for name, v := range snap.Counters {
		if strings.Contains(name, ".fail") && v != 0 {
			t.Errorf("failure counter %s = %d on a clean round trip", name, v)
		}
	}

	// One name per stage: every span is a stage whose metrics saw at
	// least as many passes, and every stage above is a span in a frame
	// of its kind.
	kindOf := map[string]string{"core.encode": "encode", "wifi.tx": "waveform", "wifi.rx": "decode", "core.decode": "decode"}
	spans := map[string]bool{} // "<frame kind>/<span name>"
	for _, f := range tr.Retained() {
		for _, sp := range f.Spans {
			if h := snap.Histograms[sp.Name+".seconds"]; h.Count == 0 {
				t.Errorf("%s span %s: no %s.seconds samples", f.Kind, sp.Name, sp.Name)
			}
			if calls := snap.Counters[sp.Name+".calls"]; calls < uint64(sp.Count) {
				t.Errorf("%s span %s: %d occurrences but %s.calls = %d", f.Kind, sp.Name, sp.Count, sp.Name, calls)
			}
			spans[f.Kind+"/"+sp.Name] = true
		}
	}
	for _, st := range stages {
		if st == "wifi.tx.scramble" {
			continue // runs in Transmitter.Frame, which carries no trace
		}
		kind := kindOf[st[:strings.LastIndex(st, ".")]]
		if !spans[kind+"/"+st] {
			t.Errorf("stage %s: no span in a %q frame", st, kind)
		}
	}
}

// TestDecodeFailureTaxonomy forces each receive/decode failure class
// through the public Decoder and asserts the matching counter (and only a
// matching event) moved.
func TestDecodeFailureTaxonomy(t *testing.T) {
	enc, err := NewEncoder(Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH2})
	if err != nil {
		t.Fatal(err)
	}
	// A payload large enough that the frame spans many DATA symbols, so
	// the truncation vector genuinely cuts DATA off.
	frame, err := enc.Encode(make([]byte, 300))
	if err != nil {
		t.Fatal(err)
	}
	good, err := frame.Waveform()
	if err != nil {
		t.Fatal(err)
	}
	if len(good) <= wifi.PreambleLength+2*wifi.SymbolLength {
		t.Fatalf("test frame too short (%d samples) to truncate", len(good))
	}

	// A standard (non-SledZig) frame: decodes at the PHY but carries no
	// protected channel for the SledZig detector.
	normal, err := wifi.Transmitter{Mode: wifi.Mode{Modulation: QAM64, CodeRate: Rate34}}.
		Frame([]byte("plain wifi frame"))
	if err != nil {
		t.Fatal(err)
	}
	normalWave, err := normal.Waveform()
	if err != nil {
		t.Fatal(err)
	}

	// stage names the pipeline stage whose .errors counter must read 1
	// (every other stage's at 0); "" when the failure precedes or falls
	// between stages.
	cases := []struct {
		name    string
		mangle  func() []complex128
		counter string
		event   string
		stage   string
	}{
		{
			name:    "short waveform",
			mangle:  func() []complex128 { return make([]complex128, 100) },
			counter: "wifi.rx.fail.short_waveform",
			event:   "decode_fail.short_waveform",
		},
		{
			name: "unusable channel estimate",
			mangle: func() []complex128 {
				// Long enough to clear the length check, but all-zero: the
				// LTS carries no energy to estimate a channel from.
				return make([]complex128, len(good))
			},
			counter: "wifi.rx.fail.channel_estimate",
			event:   "decode_fail.channel_estimate",
			stage:   "wifi.rx.sync",
		},
		{
			name: "invalid SIGNAL field",
			mangle: func() []complex128 {
				// Splice in a hand-crafted SIGNAL symbol declaring a
				// zero-length PSDU: parity and rate code check out, so the
				// failure is unambiguously the SIGNAL content.
				field := make([]bits.Bit, 24)
				field[2], field[3] = 1, 1 // rate code 0b0011, length 0, parity 0
				pts, err := wifi.SignalPoints(field)
				if err != nil {
					t.Fatal(err)
				}
				sym, err := wifi.AssembleSymbol(pts, 0)
				if err != nil {
					t.Fatal(err)
				}
				w := append([]complex128(nil), good...)
				copy(w[wifi.PreambleLength:wifi.PreambleLength+wifi.SymbolLength], sym)
				return w
			},
			counter: "wifi.rx.fail.signal",
			event:   "decode_fail.signal",
			stage:   "wifi.rx.signal",
		},
		{
			name: "truncated DATA field",
			mangle: func() []complex128 {
				// Keep preamble + SIGNAL + one DATA symbol; SIGNAL declares
				// more symbols than remain.
				return append([]complex128(nil), good[:wifi.PreambleLength+2*wifi.SymbolLength]...)
			},
			counter: "wifi.rx.fail.truncated",
			event:   "decode_fail.truncated",
		},
		{
			name:    "no protected channel detected",
			mangle:  func() []complex128 { return normalWave },
			counter: "core.decode.fail.detect",
			event:   "decode_fail.detect",
			stage:   "core.decode.detect",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := withMetrics(t)
			ring := NewEventRing(16)
			defer reg.Bus().Subscribe(ring)()

			dec, err := NewDecoder(Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dec.Decode(tc.mangle()); err == nil {
				t.Fatal("decode unexpectedly succeeded")
			}
			snap := reg.Snapshot()
			if got := snap.Counters[tc.counter]; got != 1 {
				t.Errorf("counter %s = %d, want 1", tc.counter, got)
			}
			// Exactly the matching failure class moved.
			for name, v := range snap.Counters {
				if strings.Contains(name, ".fail") && name != tc.counter && v != 0 {
					t.Errorf("unrelated failure counter %s = %d", name, v)
				}
			}
			// Exactly the failing stage counted an error.
			if tc.stage != "" {
				if got := snap.Counters[tc.stage+".errors"]; got != 1 {
					t.Errorf("stage %s.errors = %d, want 1", tc.stage, got)
				}
			}
			for name, v := range snap.Counters {
				if strings.HasSuffix(name, ".errors") && name != tc.stage+".errors" && v != 0 {
					t.Errorf("unrelated stage counter %s = %d", name, v)
				}
			}
			// The event bus saw the same class.
			found := false
			for _, ev := range ring.Events() {
				if ev.Kind == tc.event {
					found = true
				}
			}
			if !found {
				t.Errorf("no %q event on the bus; got %+v", tc.event, ring.Events())
			}
		})
	}
}

// TestStripFailureCounted drives core.Decoder.Decode with a DATA field
// that is not a whole number of symbols: the strip stage closes through a
// deferred call over named results, and must still count the error.
func TestStripFailureCounted(t *testing.T) {
	reg := withMetrics(t)
	mode := wifi.Mode{Modulation: QAM64, CodeRate: Rate34}
	rx := &wifi.RxResult{Mode: mode, DataBits: make([]bits.Bit, mode.DataBitsPerSymbol()+1)}
	if _, err := (core.Decoder{}).Decode(rx, core.CH2); !errors.Is(err, core.ErrExtraBitLayout) {
		t.Fatalf("Decode of %d bits: %v, want ErrExtraBitLayout", len(rx.DataBits), err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["core.decode.strip.errors"]; got != 1 {
		t.Errorf("core.decode.strip.errors = %d, want 1", got)
	}
	if got := snap.Counters["core.decode.strip.calls"]; got != 1 {
		t.Errorf("core.decode.strip.calls = %d, want 1", got)
	}
}

// TestEncodeFailureCounted checks the encoder-side failure taxonomy: an
// oversized payload fails fast and is counted.
func TestEncodeFailureCounted(t *testing.T) {
	reg := withMetrics(t)

	enc, err := NewEncoder(Config{Modulation: QAM16, CodeRate: Rate12, Channel: CH1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encode(make([]byte, 1<<20)); err == nil {
		t.Fatal("encode of oversized payload unexpectedly succeeded")
	}
	if got := reg.Snapshot().Counters["core.encode.fail"]; got == 0 {
		t.Error("core.encode.fail still zero after failed encode")
	}
}

// TestNoRegistryIsNoOp makes sure the library runs identically with
// observability off — the default state.
func TestNoRegistryIsNoOp(t *testing.T) {
	SetDefaultMetrics(nil)
	if DefaultMetrics() != nil {
		t.Fatal("default registry not nil")
	}
	enc, err := NewEncoder(Config{Modulation: QAM16, CodeRate: Rate12, Channel: CH3})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := enc.Encode([]byte("no registry"))
	if err != nil {
		t.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := NewDecoder(Config{})
	res, err := dec.Decode(wave)
	if err != nil {
		t.Fatal(err)
	}
	if res.Channel != CH3 || string(res.Payload) != "no registry" {
		t.Fatalf("round trip without registry: channel %v payload %q", res.Channel, res.Payload)
	}
	_ = obs.Default() // and the internal default agrees
}
