package sledzig_test

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sledzig"
	"sledzig/internal/fault"
)

// decodeSentinels is the complete public decode taxonomy: every decode
// failure, however hostile the input, must match one of these.
var decodeSentinels = []error{
	sledzig.ErrNoPreamble,
	sledzig.ErrBadSignalField,
	sledzig.ErrDemodulation,
	sledzig.ErrNoProtectedChannel,
	sledzig.ErrExtraBitMismatch,
	sledzig.ErrPayloadTooLarge,
}

func assertTypedDecodeErr(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	for _, s := range decodeSentinels {
		if errors.Is(err, s) {
			return
		}
	}
	t.Fatalf("decode error outside the public taxonomy: %v", err)
}

// wavesToBytes / bytesToWaves map waveforms onto fuzz corpora: 16 bytes
// per sample (two little-endian float64s).
func waveToBytes(wave []complex128) []byte {
	out := make([]byte, 16*len(wave))
	for i, s := range wave {
		binary.LittleEndian.PutUint64(out[16*i:], math.Float64bits(real(s)))
		binary.LittleEndian.PutUint64(out[16*i+8:], math.Float64bits(imag(s)))
	}
	return out
}

func bytesToWave(data []byte) []complex128 {
	n := len(data) / 16
	const maxSamples = 1 << 13 // keep single fuzz iterations fast
	if n > maxSamples {
		n = maxSamples
	}
	wave := make([]complex128, n)
	for i := range wave {
		re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		wave[i] = complex(re, im)
	}
	return wave
}

func fuzzFrameWaveform(tb testing.TB) []complex128 {
	tb.Helper()
	enc, err := sledzig.NewEncoder(sledzig.Config{Channel: sledzig.CH2})
	if err != nil {
		tb.Fatal(err)
	}
	frame, err := enc.Encode([]byte("fuzz seed payload for sledzig"))
	if err != nil {
		tb.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		tb.Fatal(err)
	}
	return wave
}

// FuzzDecodeWaveform feeds arbitrary sample streams to both the plain and
// the Resilient decoder: any input may fail, but only with a typed
// taxonomy error — never a panic. The corpus is seeded with a clean frame
// and with fault-injected variants of it.
func FuzzDecodeWaveform(f *testing.F) {
	wave := fuzzFrameWaveform(f)
	f.Add(waveToBytes(wave))
	f.Add(waveToBytes(wave[:len(wave)/3]))
	rng := rand.New(rand.NewSource(42))
	for _, inj := range []fault.Injector{
		fault.Truncate{Fraction: 0.4},
		fault.Clip{Factor: 0.3},
		fault.SignalCorruption{Samples: 12},
		fault.Dropout{Spans: 3, SpanLen: 200},
		fault.IQImbalance{GainDB: 3, PhaseDeg: 20},
	} {
		f.Add(waveToBytes(inj.Apply(rng, append([]complex128(nil), wave...))))
	}
	f.Add([]byte{})
	f.Add(make([]byte, 1600))

	dec, err := sledzig.NewDecoder(sledzig.Config{})
	if err != nil {
		f.Fatal(err)
	}
	resilient, err := sledzig.NewDecoder(sledzig.Config{Resilient: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := bytesToWave(data)
		_, derr := dec.Decode(w)
		assertTypedDecodeErr(t, derr)
		_, derr = resilient.Decode(w)
		assertTypedDecodeErr(t, derr)
		_, nerr := dec.Decode(w, sledzig.AsStandardFrame())
		assertTypedDecodeErr(t, nerr)
	})
}

// FuzzSignalField perturbs the SIGNAL symbol region of an otherwise valid
// frame — the one OFDM symbol whose corruption steers the whole decode
// (RATE, LENGTH, parity). Whatever the perturbation, the decoder must
// return a typed error or a successful decode, never panic.
func FuzzSignalField(f *testing.F) {
	base := fuzzFrameWaveform(f)
	rng := rand.New(rand.NewSource(43))
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	// Seed with the sign-flip patterns the fault injector uses.
	sc := fault.SignalCorruption{Samples: 8}
	corrupted := sc.Apply(rng, append([]complex128(nil), base...))
	var seed []byte
	for i := 320; i < 400 && i < len(base); i++ {
		if corrupted[i] != base[i] {
			seed = append(seed, byte(i-320))
		}
	}
	f.Add(seed)

	dec, err := sledzig.NewDecoder(sledzig.Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := append([]complex128(nil), base...)
		// Each byte perturbs one SIGNAL-region sample: low 7 bits pick the
		// offset within the 80-sample symbol, the high bit picks negation
		// versus an additive kick.
		for _, b := range data {
			i := 320 + int(b&0x7F)
			if i >= len(w) {
				continue
			}
			if b&0x80 != 0 {
				w[i] = -w[i]
			} else {
				w[i] += complex(0.05, -0.05)
			}
		}
		_, derr := dec.Decode(w)
		assertTypedDecodeErr(t, derr)
	})
}
