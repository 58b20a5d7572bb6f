package codec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"sledzig/internal/core"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

// conformanceParams is the common operating point every backend must
// support: the paper's default QAM-16 rate-1/2 mode on CH2.
func conformanceParams() Params {
	return Params{
		Convention: wifi.ConventionIEEE,
		Mode:       wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12},
		Channel:    core.CH2,
	}
}

// decodeSentinels is the closed set of error roots a backend may return
// from Decode: its own typed sentinel or one of the wifi/core sentinels
// the facade taxonomy already maps. Anything else breaks errors.Is
// classification for facade callers.
var decodeSentinels = []error{
	ErrDecode,
	wifi.ErrShortWaveform,
	wifi.ErrBadSignal,
	wifi.ErrDemodFailed,
	core.ErrNoProtectedChannel,
	core.ErrExtraBitLayout,
	core.ErrConstraintUnsatisfied,
	core.ErrPayloadSize,
}

func isTypedDecodeErr(err error) bool {
	for _, s := range decodeSentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// addNoise returns a copy of wave with complex AWGN snrDB below its mean
// power.
func addNoise(rng *rand.Rand, wave []complex128, snrDB float64) []complex128 {
	var p float64
	for _, v := range wave {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	sigma := math.Sqrt(p / float64(len(wave)) * math.Pow(10, -snrDB/10) / 2)
	out := make([]complex128, len(wave))
	for i, v := range wave {
		out[i] = v + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return out
}

// TestCodecConformance is the shared conformance suite: every registered
// backend must round-trip payloads, honour its own band-power contract,
// keep decode failures inside the typed-error taxonomy, hand out results
// that later decodes on the same instance leave intact, and hold any
// allocation bound it claims. Adding a backend to the registry opts it
// into all of this automatically.
func TestCodecConformance(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p := conformanceParams()
			c, err := New(name, p)
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}

			ct := c.Contract()
			if ct.MinDropDB <= 0 {
				t.Fatalf("contract claims no band-power drop (%.1f dB)", ct.MinDropDB)
			}
			if of := c.OverheadFraction(); of < 0 || of > 1 {
				t.Fatalf("overhead fraction %.3f outside [0, 1]", of)
			}
			maxP := c.MaxPayload()
			if maxP <= 0 {
				t.Fatalf("MaxPayload() = %d, want positive", maxP)
			}

			t.Run("round_trip", func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				sizes := []int{1, 64, 257}
				if maxP < 1500 {
					sizes = append(sizes, maxP)
				} else {
					sizes = append(sizes, 1500)
				}
				for _, n := range sizes {
					payload := make([]byte, n)
					rng.Read(payload)
					enc, err := c.Encode(payload)
					if err != nil {
						t.Fatalf("Encode(%d octets): %v", n, err)
					}
					if enc.NumSymbols <= 0 || len(enc.Waveform) == 0 {
						t.Fatalf("Encode(%d octets): empty frame (%d symbols, %d samples)", n, enc.NumSymbols, len(enc.Waveform))
					}
					if enc.AirtimeSeconds <= 0 {
						t.Fatalf("Encode(%d octets): airtime %g", n, enc.AirtimeSeconds)
					}
					if enc.ProtectedMask != nil && len(enc.ProtectedMask) != enc.NumSymbols {
						t.Fatalf("Encode(%d octets): mask of %d entries for %d symbols", n, len(enc.ProtectedMask), enc.NumSymbols)
					}
					dec, err := c.Decode(enc.Waveform)
					if err != nil {
						t.Fatalf("Decode(%d octets): %v", n, err)
					}
					if !bytes.Equal(dec.Payload, payload) {
						t.Fatalf("round trip of %d octets: payload mismatch", n)
					}
					if dec.Channel != p.Channel {
						t.Fatalf("round trip of %d octets: channel %v, want %v", n, dec.Channel, p.Channel)
					}
				}
				// Low-entropy payloads hold nearly every message bit at one
				// level; they must decode on every protected channel.
				for ch := core.CH1; ch <= core.CH4; ch++ {
					pc := p
					pc.Channel = ch
					cc, err := New(name, pc)
					if err != nil {
						t.Fatalf("New(%q) on channel %v: %v", name, ch, err)
					}
					for _, fill := range []byte{0x00, 0xFF} {
						for _, n := range []int{1, min(64, cc.MaxPayload())} {
							payload := bytes.Repeat([]byte{fill}, n)
							enc, err := cc.Encode(payload)
							if err != nil {
								t.Fatalf("channel %v, %d octets of %#02x: Encode: %v", ch, n, fill, err)
							}
							dec, err := cc.Decode(enc.Waveform)
							if err != nil {
								t.Fatalf("channel %v, %d octets of %#02x: Decode: %v", ch, n, fill, err)
							}
							if !bytes.Equal(dec.Payload, payload) || dec.Channel != ch {
								t.Fatalf("channel %v, %d octets of %#02x: got %d octets on channel %v", ch, n, fill, len(dec.Payload), dec.Channel)
							}
						}
					}
				}
			})

			t.Run("payload_bound", func(t *testing.T) {
				if _, err := c.Encode(make([]byte, maxP+1)); err == nil {
					t.Fatalf("Encode(MaxPayload+1 = %d octets) succeeded", maxP+1)
				}
			})

			t.Run("band_power_contract", func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				payload := make([]byte, 256)
				rng.Read(payload)
				drop, err := MeasureBandDrop(c, p, payload)
				if err != nil {
					t.Fatalf("MeasureBandDrop: %v", err)
				}
				if drop < ct.MinDropDB {
					t.Fatalf("protected-band drop %.2f dB below the contract's %.2f dB", drop, ct.MinDropDB)
				}
				if ct.WholeFrame {
					enc, err := c.Encode(payload)
					if err != nil {
						t.Fatalf("Encode: %v", err)
					}
					for s, prot := range enc.ProtectedMask {
						if !prot {
							t.Fatalf("whole-frame contract but symbol %d unprotected", s)
						}
					}
				}
			})

			t.Run("typed_errors", func(t *testing.T) {
				enc, err := c.Encode([]byte("typed-error probe payload"))
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				rng := rand.New(rand.NewSource(13))
				noise := make([]complex128, 4000)
				for i := range noise {
					noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				cases := map[string][]complex128{
					"empty":     nil,
					"short":     make([]complex128, 100),
					"zeros":     make([]complex128, 4000),
					"noise":     noise,
					"truncated": enc.Waveform[:len(enc.Waveform)/2],
				}
				for label, wave := range cases {
					_, derr := c.Decode(wave)
					if derr == nil {
						t.Fatalf("%s: Decode succeeded on garbage", label)
					}
					if !isTypedDecodeErr(derr) {
						t.Fatalf("%s: error outside the typed taxonomy: %v", label, derr)
					}
				}
			})

			t.Run("results_owned", func(t *testing.T) {
				// Same-length frames, so an instance that aliased its
				// recycled buffers into results would overwrite A in place;
				// B carries noise so its EVM differs from A's.
				rng := rand.New(rand.NewSource(17))
				pa, pb := make([]byte, 300), make([]byte, 300)
				rng.Read(pa)
				rng.Read(pb)
				ea, err := c.Encode(pa)
				if err != nil {
					t.Fatalf("Encode A: %v", err)
				}
				eb, err := c.Encode(pb)
				if err != nil {
					t.Fatalf("Encode B: %v", err)
				}
				a, err := c.Decode(ea.Waveform)
				if err != nil {
					t.Fatalf("Decode A: %v", err)
				}
				payload := append([]byte(nil), a.Payload...)
				evm := append([]float64(nil), a.SymbolEVM...)
				if _, err := c.Decode(addNoise(rng, eb.Waveform, 35)); err != nil {
					t.Fatalf("Decode B: %v", err)
				}
				if !bytes.Equal(a.Payload, payload) {
					t.Fatal("decoding frame B changed frame A's Payload")
				}
				if len(a.SymbolEVM) != len(evm) {
					t.Fatalf("decoding frame B resized frame A's SymbolEVM from %d to %d", len(evm), len(a.SymbolEVM))
				}
				for s := range evm {
					if math.Float64bits(a.SymbolEVM[s]) != math.Float64bits(evm[s]) {
						t.Fatalf("decoding frame B changed frame A's SymbolEVM[%d]", s)
					}
				}
			})

			t.Run("assemble_renders_encode", func(t *testing.T) {
				rng := rand.New(rand.NewSource(19))
				other := make([]byte, 200)
				rng.Read(other)
				for _, n := range []int{1, 64, 257, maxP} {
					payload := make([]byte, n)
					rng.Read(payload)
					want, err := c.Encode(payload)
					if err != nil {
						t.Fatalf("Encode(%d octets): %v", n, err)
					}
					frame, err := c.Assemble(payload)
					if err != nil {
						t.Fatalf("Assemble(%d octets): %v", n, err)
					}
					if frame.Waveform != nil {
						t.Fatalf("Assemble(%d octets) rendered %d samples; want a nil Waveform", n, len(frame.Waveform))
					}
					if frame.NumSymbols != want.NumSymbols || frame.AirtimeSeconds != want.AirtimeSeconds ||
						!slices.Equal(frame.ProtectedMask, want.ProtectedMask) {
						t.Fatalf("Assemble(%d octets) accounts %d symbols, %g s; Encode %d, %g s (or the masks differ)",
							n, frame.NumSymbols, frame.AirtimeSeconds, want.NumSymbols, want.AirtimeSeconds)
					}
					a := renderSame(t, frame, want.Waveform)
					// The instance moves on to other frames before the
					// second render.
					if _, err := c.Assemble(other); err != nil {
						t.Fatalf("Assemble(other): %v", err)
					}
					eo, err := c.Encode(other)
					if err != nil {
						t.Fatalf("Encode(other): %v", err)
					}
					if _, err := c.Decode(eo.Waveform); err != nil {
						t.Fatalf("Decode(other): %v", err)
					}
					clear(a)
					renderSame(t, frame, want.Waveform)
				}
			})

			t.Run("concurrent_render", func(t *testing.T) {
				rng := rand.New(rand.NewSource(29))
				payload, other := make([]byte, 257), make([]byte, 100)
				rng.Read(payload)
				rng.Read(other)
				want, err := c.Encode(payload)
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				frame, err := c.Assemble(payload)
				if err != nil {
					t.Fatalf("Assemble: %v", err)
				}
				tracer := trace.New(trace.Config{})
				waves := make([][]complex128, 8)
				errs := make([]error, len(waves))
				var wg sync.WaitGroup
				for g := range waves {
					wg.Add(1)
					go func() {
						defer wg.Done()
						tf := tracer.Start("waveform")
						waves[g], errs[g] = frame.AppendWaveform(nil, tf)
						tf.Finish(errs[g])
					}()
				}
				// The instance assembles and renders another frame while
				// the eight renders run.
				if enc, err := c.Assemble(other); err != nil {
					t.Errorf("Assemble(other): %v", err)
				} else if _, err := enc.AppendWaveform(nil, nil); err != nil {
					t.Errorf("render other: %v", err)
				}
				wg.Wait()
				for g, wave := range waves {
					if errs[g] != nil {
						t.Fatalf("render %d: %v", g, errs[g])
					}
					if !slices.Equal(wave, want.Waveform) {
						t.Fatalf("render %d differs from Encode's waveform", g)
					}
				}
			})

			if ct.MaxEncodeAllocs > 0 {
				t.Run("alloc_bound", func(t *testing.T) {
					payload := make([]byte, 800)
					if _, err := c.Encode(payload); err != nil { // grow the plan's layout
						t.Fatalf("Encode: %v", err)
					}
					avg := testing.AllocsPerRun(50, func() {
						if _, err := c.Encode(payload); err != nil {
							t.Fatalf("Encode: %v", err)
						}
					})
					if avg > float64(ct.MaxEncodeAllocs) {
						t.Fatalf("%.1f allocs/Encode exceeds the contract's %d", avg, ct.MaxEncodeAllocs)
					}
				})
			}
		})
	}
}

// renderSame renders frame into a fresh buffer and requires want's
// samples exactly, in a buffer sized exactly to the PPDU.
func renderSame(t *testing.T, frame *Encoded, want []complex128) []complex128 {
	t.Helper()
	wave, err := frame.AppendWaveform(nil, nil)
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	if len(wave) != len(want) || cap(wave) != len(wave) {
		t.Fatalf("render of %d samples in a buffer of %d; Encode rendered %d", len(wave), cap(wave), len(want))
	}
	for i := range want {
		if wave[i] != want[i] {
			t.Fatalf("render differs from Encode's waveform at sample %d: %v, want %v", i, wave[i], want[i])
		}
	}
	return wave
}

// TestCodecInstancesIndependent guards the one-instance-per-worker
// contract: two instances of the same backend must not share mutable
// state observable through interleaved use.
func TestCodecInstancesIndependent(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p := conformanceParams()
			a, err := New(name, p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(name, p)
			if err != nil {
				t.Fatal(err)
			}
			pa := []byte("instance A payload")
			pb := []byte("instance B has a different length payload")
			ea, err := a.Encode(pa)
			if err != nil {
				t.Fatal(err)
			}
			eb, err := b.Encode(pb)
			if err != nil {
				t.Fatal(err)
			}
			// Decode crosswise after both encodes: recycled buffers in one
			// instance must not corrupt the other's frame.
			da, err := b.Decode(ea.Waveform)
			if err != nil {
				t.Fatalf("cross decode A: %v", err)
			}
			db, err := a.Decode(eb.Waveform)
			if err != nil {
				t.Fatalf("cross decode B: %v", err)
			}
			if !bytes.Equal(da.Payload, pa) || !bytes.Equal(db.Payload, pb) {
				t.Fatal("instances shared state: cross-decoded payloads mismatch")
			}
		})
	}
}

// TestOfdmFiRejectsForeignChannel pins the strength of ofdmfi's band
// check: a frame protecting one channel, decoded by an instance that
// expects another, must fail on the band check, not decode.
func TestOfdmFiRejectsForeignChannel(t *testing.T) {
	var inst [4]Codec
	for ch := core.CH1; ch <= core.CH4; ch++ {
		p := conformanceParams()
		p.Channel = ch
		c, err := New("ofdmfi", p)
		if err != nil {
			t.Fatal(err)
		}
		inst[ch-core.CH1] = c
	}
	rng := rand.New(rand.NewSource(23))
	for tx := core.CH1; tx <= core.CH4; tx++ {
		for i := 0; i < 20; i++ {
			payload := make([]byte, 1+rng.Intn(256))
			rng.Read(payload)
			frame, err := inst[tx-core.CH1].Encode(payload)
			if err != nil {
				t.Fatalf("Encode on %v: %v", tx, err)
			}
			for rx := core.CH1; rx <= core.CH4; rx++ {
				if rx == tx {
					continue
				}
				_, err := inst[rx-core.CH1].Decode(frame.Waveform)
				if !errors.Is(err, ErrDecode) || !strings.Contains(err.Error(), "is not the quietest window") {
					t.Fatalf("%d-octet frame protecting %v, decoded on %v: %v, want the band error", len(payload), tx, rx, err)
				}
			}
		}
	}
}
