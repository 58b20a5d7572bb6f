package sledzig

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"sledzig/internal/codec"
	"sledzig/internal/core"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

// TestCodecsLists checks the public registry view.
func TestCodecsLists(t *testing.T) {
	names := Codecs()
	for _, want := range []string{CodecSledZig, CodecOOK, CodecOfdmFi} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("Codecs() = %v misses %q", names, want)
		}
	}
}

// TestConfigUnknownCodec checks that a mistyped codec name is an
// ErrInvalidConfig everywhere a Config is consumed.
func TestConfigUnknownCodec(t *testing.T) {
	cfg := Config{Channel: CH2, Codec: "nope"}
	if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("Validate: %v does not wrap ErrInvalidConfig", err)
	}
	if _, err := NewEncoder(cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewEncoder: %v does not wrap ErrInvalidConfig", err)
	}
	if _, err := NewDecoder(cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewDecoder: %v does not wrap ErrInvalidConfig", err)
	}
	if _, err := NewEngine(EngineConfig{Config: cfg}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewEngine: %v does not wrap ErrInvalidConfig", err)
	}
}

// TestConstructorsValidateUniformly checks the construction-order
// contract: NewEncoder, NewDecoder and NewEngine all resolve defaults and
// validate, so a bad non-codec field fails identically in all three.
func TestConstructorsValidateUniformly(t *testing.T) {
	cfg := Config{Channel: CH2, ScramblerSeed: 200}
	if _, err := NewEncoder(cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewEncoder: %v does not wrap ErrInvalidConfig", err)
	}
	if _, err := NewDecoder(cfg); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewDecoder: %v does not wrap ErrInvalidConfig", err)
	}
	if _, err := NewEngine(EngineConfig{Config: cfg}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewEngine: %v does not wrap ErrInvalidConfig", err)
	}
}

// TestGenericCodecNeedsChannel checks that fixed-channel backends reject a
// channel-less config with ErrInvalidChannel from every constructor.
func TestGenericCodecNeedsChannel(t *testing.T) {
	for _, name := range []string{CodecOOK, CodecOfdmFi} {
		cfg := Config{Codec: name}
		if _, err := NewEncoder(cfg); !errors.Is(err, ErrInvalidChannel) {
			t.Fatalf("NewEncoder(%s): %v does not wrap ErrInvalidChannel", name, err)
		}
		if _, err := NewDecoder(cfg); !errors.Is(err, ErrInvalidChannel) {
			t.Fatalf("NewDecoder(%s): %v does not wrap ErrInvalidChannel", name, err)
		}
		if _, err := NewEngine(EngineConfig{Config: cfg}); !errors.Is(err, ErrInvalidChannel) {
			t.Fatalf("NewEngine(%s): %v does not wrap ErrInvalidChannel", name, err)
		}
	}
}

// TestSledZigDecoderReadsModeOffTheAir checks that a SledZig Decoder's
// configured mode and channel never constrain decoding: configs with no
// channel, a mode SledZig cannot pin (BPSK), or another mode and channel
// all decode a QAM-64 r3/4 CH2 frame and report what was on the air.
func TestSledZigDecoderReadsModeOffTheAir(t *testing.T) {
	wave := encodeTestWaveform(t, Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH2}, 200)
	for _, cfg := range []Config{{}, {Modulation: BPSK}, {Modulation: QAM256, CodeRate: Rate34, Channel: CH4}} {
		dec, err := NewDecoder(cfg)
		if err != nil {
			t.Fatalf("NewDecoder(%+v): %v", cfg, err)
		}
		res, err := dec.Decode(wave)
		if err != nil {
			t.Fatalf("Decode with %+v: %v", cfg, err)
		}
		if res.Channel != CH2 || res.Modulation != QAM64 || res.CodeRate != Rate34 {
			t.Fatalf("decoder %+v reported %v %v r=%v, want CH2 QAM-64 r=3/4", cfg, res.Channel, res.Modulation, res.CodeRate)
		}
	}
}

// TestNewDecoderResolvesNoPlan checks when a SledZig configuration
// resolves its extra-bit plan: NewDecoder, whose decodes read mode and
// channel off the air, never does, so the plan cache sees no lookup,
// while NewEncoder and NewEngine still refuse a mode SledZig cannot pin.
func TestNewDecoderResolvesNoPlan(t *testing.T) {
	reg := withMetrics(t)
	if _, err := NewDecoder(Config{Modulation: QAM64, CodeRate: Rate34}); err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	snap := reg.Snapshot()
	if n := snap.Counters["core.plan.cache_hits"] + snap.Counters["core.plan.cache_misses"]; n != 0 {
		t.Fatalf("NewDecoder looked up %d plans, want none", n)
	}
	bpsk := Config{Modulation: BPSK, Channel: CH1}
	if _, err := NewEncoder(bpsk); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("NewEncoder(BPSK): %v does not wrap ErrInvalidConfig", err)
	}
	if _, err := NewEngine(EngineConfig{Config: bpsk}); err == nil {
		t.Fatal("NewEngine accepted BPSK, a mode SledZig cannot pin")
	}
}

// TestExtraBitsMatchLayout holds a facade SledZig frame's ExtraBits, which
// its backend counts as NumSymbols × ExtraBitsPerSymbol, to the positions
// core.Encoder.EncodeTo lists for the same payload, in every paper mode
// and channel under both conventions.
func TestExtraBitsMatchLayout(t *testing.T) {
	payload := bytes.Repeat([]byte("extra bits "), 137)
	for _, conv := range []Convention{ConventionIEEE, ConventionPaper} {
		for _, mode := range wifi.PaperModes() {
			for ch := CH1; ch <= CH4; ch++ {
				enc, err := NewEncoder(Config{Modulation: mode.Modulation, CodeRate: mode.CodeRate, Channel: ch, Convention: conv})
				if err != nil {
					t.Fatalf("%v %v %v: NewEncoder: %v", conv, mode, ch, err)
				}
				plan, err := core.CachedPlan(conv, mode, ch)
				if err != nil {
					t.Fatalf("%v %v %v: CachedPlan: %v", conv, mode, ch, err)
				}
				var res core.EncodeResult
				for _, n := range []int{1, 257, len(payload)} {
					frame, err := enc.Encode(payload[:n])
					if err != nil {
						t.Fatalf("%v %v %v: Encode of %d octets: %v", conv, mode, ch, n, err)
					}
					if err := (&core.Encoder{Plan: plan}).EncodeTo(payload[:n], &res); err != nil {
						t.Fatalf("%v %v %v: EncodeTo of %d octets: %v", conv, mode, ch, n, err)
					}
					if frame.ExtraBits() != len(res.Layout.Positions) || frame.NumSymbols() != res.Frame.NumSymbols {
						t.Fatalf("%v %v %v, %d octets: %d extra bits in %d symbols, EncodeTo lists %d in %d",
							conv, mode, ch, n, frame.ExtraBits(), frame.NumSymbols(), len(res.Layout.Positions), res.Frame.NumSymbols)
					}
				}
			}
		}
	}
}

// TestCollectionCostsNoAllocations holds every registered codec's warmed
// facade round trip (Encode, Waveform, Decode) to the same allocation
// count whether or not two garbage collections run just before it: the
// frame path keeps its scratch in buffers its encoders, decoders and
// results own, or on the stack, so no collection empties a pool that the
// next frame refills. Each count is the least of a few round trips, so a
// stray allocation elsewhere in the process cannot raise it; the test
// runs under -race too.
func TestCollectionCostsNoAllocations(t *testing.T) {
	for _, name := range Codecs() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Channel: CH2, Codec: name}
			enc, err := NewEncoder(cfg)
			if err != nil {
				t.Fatalf("NewEncoder: %v", err)
			}
			dec, err := NewDecoder(cfg)
			if err != nil {
				t.Fatalf("NewDecoder: %v", err)
			}
			payload := bytes.Repeat([]byte("collect "), 12)
			roundTrip := func() {
				frame, err := enc.Encode(payload)
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				wave, err := frame.Waveform()
				if err != nil {
					t.Fatalf("Waveform: %v", err)
				}
				res, err := dec.Decode(wave)
				if err != nil || !bytes.Equal(res.Payload, payload) {
					t.Fatalf("Decode: %v", err)
				}
			}
			roundTrip()
			mallocs := func(collect bool) uint64 {
				least := uint64(math.MaxUint64)
				for range 5 {
					if collect {
						runtime.GC()
						runtime.GC()
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					roundTrip()
					runtime.ReadMemStats(&after)
					least = min(least, after.Mallocs-before.Mallocs)
				}
				return least
			}
			if plain, collected := mallocs(false), mallocs(true); plain != collected {
				t.Errorf("a round trip allocates %d times, %d after two collections: the frame path refills scratch a collection emptied", plain, collected)
			}
		})
	}
}

// TestCodecFrameRendersOnce pins what a frame's render allocates: Waveform
// of a warmed frame of every registered codec makes exactly one
// allocation, a buffer whose length and capacity are the PPDU's sample
// count. A render neither copies a pre-rendered waveform nor grows its
// buffer by append.
func TestCodecFrameRendersOnce(t *testing.T) {
	for _, name := range Codecs() {
		t.Run(name, func(t *testing.T) {
			enc, err := NewEncoder(Config{Channel: CH2, Codec: name})
			if err != nil {
				t.Fatalf("NewEncoder: %v", err)
			}
			frame, err := enc.Encode(bytes.Repeat([]byte("render "), 40))
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			wave, err := frame.Waveform()
			if err != nil {
				t.Fatalf("Waveform: %v", err)
			}
			samples := int(math.Round(frame.AirtimeSeconds() * wifi.SampleRate))
			if len(wave) != samples || cap(wave) != samples {
				t.Fatalf("Waveform returned %d samples in a buffer of %d; the PPDU holds %d", len(wave), cap(wave), samples)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := frame.Waveform(); err != nil {
					t.Fatalf("Waveform: %v", err)
				}
			})
			if allocs != 1 {
				t.Fatalf("Waveform makes %.1f allocations; want exactly 1, the PPDU's buffer", allocs)
			}
		})
	}
}

// TestDecodeAllocations pins what a warmed facade decode allocates, with
// or without the race detector: exactly what the backend hands out, with
// no facade copy and no option box. That is the DecodeResult and its
// payload, plus SymbolEVM where the backend fills it.
func TestDecodeAllocations(t *testing.T) {
	want := map[string]float64{CodecSledZig: 3, CodecOOK: 2, CodecOfdmFi: 2}
	for _, name := range Codecs() {
		t.Run(name, func(t *testing.T) {
			n, ok := want[name]
			if !ok {
				t.Fatalf("no pinned decode allocation count for codec %q", name)
			}
			cfg := Config{Channel: CH2, Codec: name}
			enc, err := NewEncoder(cfg)
			if err != nil {
				t.Fatalf("NewEncoder: %v", err)
			}
			dec, err := NewDecoder(cfg)
			if err != nil {
				t.Fatalf("NewDecoder: %v", err)
			}
			frame, err := enc.Encode(bytes.Repeat([]byte("decode "), 40))
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			wave, err := frame.Waveform()
			if err != nil {
				t.Fatalf("Waveform: %v", err)
			}
			if _, err := dec.Decode(wave); err != nil { // warm the instance's scratch
				t.Fatalf("Decode: %v", err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := dec.Decode(wave); err != nil {
					t.Fatalf("Decode: %v", err)
				}
			})
			if allocs != n {
				t.Fatalf("Decode makes %.1f allocations; want exactly %.0f", allocs, n)
			}
		})
	}
}

// TestFacadeCodecRoundTrip drives every registered backend through the
// public Encoder/Decoder surface.
func TestFacadeCodecRoundTrip(t *testing.T) {
	for _, name := range Codecs() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Channel: CH2, Codec: name}
			enc, err := NewEncoder(cfg)
			if err != nil {
				t.Fatalf("NewEncoder: %v", err)
			}
			dec, err := NewDecoder(cfg)
			if err != nil {
				t.Fatalf("NewDecoder: %v", err)
			}
			payload := []byte("facade round trip through " + name)
			frame, err := enc.Encode(payload)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if frame.Codec() != name {
				t.Fatalf("Frame.Codec() = %q, want %q", frame.Codec(), name)
			}
			if frame.NumSymbols() <= 0 || frame.AirtimeSeconds() <= 0 {
				t.Fatalf("degenerate frame: %d symbols, %g s", frame.NumSymbols(), frame.AirtimeSeconds())
			}
			wave, err := frame.Waveform()
			if err != nil {
				t.Fatalf("Waveform: %v", err)
			}
			res, err := dec.Decode(wave)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !bytes.Equal(res.Payload, payload) {
				t.Fatal("payload mismatch through facade round trip")
			}
			if res.Channel != CH2 {
				t.Fatalf("channel %v, want CH2", res.Channel)
			}
			if res.Codec != name {
				t.Fatalf("DecodeResult.Codec = %q, want %q", res.Codec, name)
			}
		})
	}
}

// panicCodec is a backend whose Assemble, the call the facade Encoder
// makes, panics on the payload "boom". Methods it does not override are
// never called here.
type panicCodec struct{ codec.Codec }

func (panicCodec) SetTrace(*trace.Frame) {}

func (panicCodec) Assemble(payload []byte) (*codec.Encoded, error) {
	if string(payload) == "boom" {
		panic("backend bug")
	}
	return &codec.Encoded{}, nil
}

// TestEncoderUnlocksAfterBackendPanic: a backend that panics must not leave
// the Encoder locked, or every later Encode on it blocks forever.
func TestEncoderUnlocksAfterBackendPanic(t *testing.T) {
	enc := &Encoder{cfg: Config{Channel: CH2, Codec: "panicky"}, cdc: panicCodec{}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the backend panic did not reach the caller")
			}
		}()
		enc.Encode([]byte("boom"))
	}()
	done := make(chan error, 1)
	go func() {
		_, err := enc.Encode([]byte("ok"))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Encode after a recovered panic: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Encode still blocked 1 s after a recovered backend panic")
	}
}

// TestFrameProtectedSymbols checks the per-backend protection contract
// surfaced on the public Frame.
func TestFrameProtectedSymbols(t *testing.T) {
	payload := []byte("protection mask probe")
	whole, err := NewEncoder(Config{Channel: CH2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := whole.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if mask := f.ProtectedSymbols(); mask != nil {
		t.Fatalf("sledzig frame mask = %v, want nil (whole frame)", mask)
	}
	ook, err := NewEncoder(Config{Channel: CH2, Codec: CodecOOK})
	if err != nil {
		t.Fatal(err)
	}
	f, err = ook.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	mask := f.ProtectedSymbols()
	if len(mask) != f.NumSymbols() {
		t.Fatalf("ook mask of %d entries for %d symbols", len(mask), f.NumSymbols())
	}
	lows := 0
	for _, prot := range mask {
		if prot {
			lows++
		}
	}
	if lows == 0 || lows == len(mask) {
		t.Fatalf("ook mask protects %d of %d symbols; want a proper subset", lows, len(mask))
	}
}

// TestFrameTransmitBitsByCodec pins which frames carry transmit bits: only
// the default SledZig codec's, one bit per DATA-field encoder input, as a
// fresh copy on every call. Every other backend returns nil, ook-ctc
// included, although its frames are standard PPDUs too.
func TestFrameTransmitBitsByCodec(t *testing.T) {
	payload := []byte("transmit bits probe")
	for _, name := range Codecs() {
		enc, err := NewEncoder(Config{Channel: CH2, Codec: name})
		if err != nil {
			t.Fatal(err)
		}
		f, err := enc.Encode(payload)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		tb := f.TransmitBits()
		if name != CodecSledZig {
			if tb != nil {
				t.Errorf("%s: TransmitBits() = %d bits, want nil", name, len(tb))
			}
			continue
		}
		// The zero Config resolves to QAM-16 rate 1/2.
		if want := f.NumSymbols() * (wifi.Mode{Modulation: QAM16, CodeRate: Rate12}).DataBitsPerSymbol(); len(tb) != want {
			t.Fatalf("%s: %d transmit bits, want %d", name, len(tb), want)
		}
		tb[0] ^= 1
		if again := f.TransmitBits(); again[0] == tb[0] {
			t.Fatalf("%s: TransmitBits() returned storage shared between calls", name)
		}
	}
}

// TestDecodeAsStandardFrame checks the option path: the same capture
// decodes as a raw PSDU with codec stages skipped.
func TestDecodeAsStandardFrame(t *testing.T) {
	cfg := Config{Channel: CH1}
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := enc.Encode([]byte("standard-frame option probe"))
	if err != nil {
		t.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatal(err)
	}
	res, err := dec.Decode(wave, AsStandardFrame())
	if err != nil {
		t.Fatalf("Decode(AsStandardFrame): %v", err)
	}
	if res.Codec != "" || res.Channel != 0 {
		t.Fatalf("standard decode reported codec %q channel %v; want raw PSDU view", res.Codec, res.Channel)
	}
	rx, err := wifi.Receiver{Seed: wifi.DefaultScramblerSeed}.Receive(wave)
	if err != nil {
		t.Fatalf("plain 802.11 Receive: %v", err)
	}
	if !bytes.Equal(rx.PSDU, res.Payload) {
		t.Fatal("plain 802.11 receiver disagrees with Decode(AsStandardFrame)")
	}
}

// TestEngineGenericCodec runs every registered backend through the pool's
// generic codec path, selected by Config.Codec. Frames from EncodeBatch,
// EncodeEach and Stream equal a facade Encoder's frames of the same
// payloads in every accessor, rendered samples included, and decode back
// through DecodeBatch.
func TestEngineGenericCodec(t *testing.T) {
	for _, name := range Codecs() {
		t.Run(name, func(t *testing.T) {
			eng, err := NewEngine(EngineConfig{Config: Config{Channel: CH2, Codec: name}, Workers: 2})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			defer eng.Close()
			enc, err := NewEncoder(Config{Channel: CH2, Codec: name})
			if err != nil {
				t.Fatalf("NewEncoder: %v", err)
			}
			payloads := [][]byte{
				[]byte("engine batch frame zero"),
				[]byte("engine batch frame one is longer"),
				[]byte("f2"),
			}
			ctx := context.Background()
			batch, err := eng.EncodeBatch(ctx, payloads)
			if err != nil {
				t.Fatalf("EncodeBatch: %v", err)
			}
			each := make([]*Frame, len(payloads))
			for i, o := range eng.EncodeEach(ctx, payloads) {
				if o.Err != nil {
					t.Fatalf("EncodeEach %d: %v", i, o.Err)
				}
				each[i] = o.Frame
			}
			in := make(chan []byte, len(payloads))
			for _, p := range payloads {
				in <- p
			}
			close(in)
			streamed := make([]*Frame, len(payloads))
			for o := range eng.Stream(ctx, in) {
				if o.Err != nil {
					t.Fatalf("Stream %d: %v", o.Index, o.Err)
				}
				streamed[o.Index] = o.Frame
			}
			for i, p := range payloads {
				want, err := enc.Encode(p)
				if err != nil {
					t.Fatalf("Encoder.Encode %d: %v", i, err)
				}
				for front, got := range map[string]*Frame{"EncodeBatch": batch[i], "EncodeEach": each[i], "Stream": streamed[i]} {
					if err := sameFrame(got, want); err != nil {
						t.Fatalf("%s frame %d: %v", front, i, err)
					}
				}
			}
			waves := make([][]complex128, len(batch))
			for i, f := range batch {
				if waves[i], err = f.Waveform(); err != nil {
					t.Fatalf("Waveform %d: %v", i, err)
				}
			}
			results, err := eng.DecodeBatch(ctx, waves)
			if err != nil {
				t.Fatalf("DecodeBatch: %v", err)
			}
			for i, r := range results {
				if !bytes.Equal(r.Payload, payloads[i]) {
					t.Fatalf("frame %d payload mismatch", i)
				}
				if r.Codec != name || r.Channel != CH2 {
					t.Fatalf("frame %d reported codec %q channel %v", i, r.Codec, r.Channel)
				}
			}
		})
	}
}

// sameFrame reports the first accessor in which got differs from want,
// comparing rendered samples with ==.
func sameFrame(got, want *Frame) error {
	if got == nil {
		return errors.New("nil frame")
	}
	switch {
	case got.Codec() != want.Codec():
		return fmt.Errorf("codec %q, want %q", got.Codec(), want.Codec())
	case got.NumSymbols() != want.NumSymbols() || got.ExtraBits() != want.ExtraBits():
		return fmt.Errorf("%d symbols and %d extra bits, want %d and %d", got.NumSymbols(), got.ExtraBits(), want.NumSymbols(), want.ExtraBits())
	case !slices.Equal(got.TransmitBits(), want.TransmitBits()):
		return errors.New("transmit bits differ")
	case !slices.Equal(got.ProtectedSymbols(), want.ProtectedSymbols()):
		return errors.New("protected symbols differ")
	case got.AirtimeSeconds() != want.AirtimeSeconds():
		return fmt.Errorf("airtime %g s, want %g s", got.AirtimeSeconds(), want.AirtimeSeconds())
	}
	gw, err := got.Waveform()
	if err != nil {
		return err
	}
	ww, err := want.Waveform()
	if err != nil {
		return err
	}
	if !slices.Equal(gw, ww) {
		return fmt.Errorf("renders %d samples unlike the Encoder's %d", len(gw), len(ww))
	}
	return nil
}
