package sledzig

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"sledzig/internal/codec"
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

// TestCodecFrameRendersOnce pins what a codec frame's render allocates:
// Waveform of a warmed ook-ctc or ofdmfi frame makes exactly one
// allocation, a buffer whose length and capacity are the PPDU's sample
// count. A render neither copies a pre-rendered waveform nor grows its
// buffer by append.
func TestCodecFrameRendersOnce(t *testing.T) {
	for _, name := range []string{CodecOOK, CodecOfdmFi} {
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

// TestEngineGenericCodec runs batch encode/decode through the pool with a
// non-default backend selected by Config.Codec. The engine's frames render
// on demand, exactly what a facade Encoder's frames render for the same
// payloads.
func TestEngineGenericCodec(t *testing.T) {
	for _, name := range []string{CodecOOK, CodecOfdmFi} {
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
			frames, err := eng.EncodeBatch(context.Background(), payloads)
			if err != nil {
				t.Fatalf("EncodeBatch: %v", err)
			}
			waves := make([][]complex128, len(frames))
			for i, f := range frames {
				if f.Codec() != name {
					t.Fatalf("frame %d codec %q, want %q", i, f.Codec(), name)
				}
				if waves[i], err = f.Waveform(); err != nil {
					t.Fatalf("Waveform %d: %v", i, err)
				}
				ff, err := enc.Encode(payloads[i])
				if err != nil {
					t.Fatalf("Encoder.Encode %d: %v", i, err)
				}
				want, err := ff.Waveform()
				if err != nil {
					t.Fatalf("Encoder frame %d: Waveform: %v", i, err)
				}
				if !slices.Equal(waves[i], want) {
					t.Fatalf("engine frame %d renders %d samples unlike the Encoder's %d", i, len(waves[i]), len(want))
				}
			}
			results, err := eng.DecodeBatch(context.Background(), waves)
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
