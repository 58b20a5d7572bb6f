package codec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"sledzig/internal/core"
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

// TestCodecConformance is the shared conformance suite: every registered
// backend must round-trip payloads, honour its own band-power contract,
// keep decode failures inside the typed-error taxonomy, and hold any
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

			if ct.MaxEncodeAllocs > 0 {
				t.Run("alloc_bound", func(t *testing.T) {
					if raceEnabled {
						t.Skip("race instrumentation allocates; bound is checked in the non-race run")
					}
					payload := make([]byte, 800)
					if _, err := c.Encode(payload); err != nil { // warm pools
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
