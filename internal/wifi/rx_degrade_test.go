package wifi

import (
	"errors"
	"math/rand"
	"testing"

	"sledzig/internal/bits"
)

// degradeTestWaveform renders one standard PPDU.
func degradeTestWaveform(t *testing.T, mode Mode) []complex128 {
	t.Helper()
	payload := bits.RandomBytes(rand.New(rand.NewSource(9)), 300)
	frame, err := Transmitter{Mode: mode}.Frame(payload)
	if err != nil {
		t.Fatalf("Frame: %v", err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatalf("Waveform: %v", err)
	}
	return wave
}

// TestResyncRecoversLeadingGarbage prepends non-frame samples to a valid
// PPDU: plain decode must fail (the capture no longer starts at the
// preamble), the Resync rung must find the true start and recover.
func TestResyncRecoversLeadingGarbage(t *testing.T) {
	wave := degradeTestWaveform(t, Mode{QAM16, Rate12})
	rng := rand.New(rand.NewSource(4))
	lead := make([]complex128, 480)
	for i := range lead {
		lead[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-3
	}
	capture := append(lead, wave...)

	if _, err := (Receiver{}).Receive(capture); err == nil {
		t.Fatal("decode with leading garbage unexpectedly succeeded at offset 0")
	}
	res, err := (Receiver{Resync: true}).Receive(capture)
	if err != nil {
		t.Fatalf("Resync receiver failed: %v", err)
	}
	if len(res.PSDU) == 0 {
		t.Fatal("Resync receiver returned empty PSDU")
	}
}

// TestNonFiniteLLRsAreTypedError feeds the soft chain a waveform with a
// NaN sample mid-DATA; the error must be classifiable, never a panic or
// silent garbage.
func TestNonFiniteLLRsAreTypedError(t *testing.T) {
	wave := degradeTestWaveform(t, Mode{QAM16, Rate12})
	nan := complex(0/zero(), 0)
	for i := PreambleLength + SymbolLength; i < PreambleLength+2*SymbolLength; i++ {
		wave[i] = nan
	}
	_, err := (Receiver{Soft: true}).Receive(wave)
	if err == nil {
		t.Skip("NaN DATA symbol still decoded; nothing to classify")
	}
	if !errors.Is(err, ErrDemodFailed) {
		t.Fatalf("NaN waveform error is untyped: %v", err)
	}
}

// zero exists so the compiler cannot fold 0/0 into a constant error.
func zero() float64 { return 0 }

// TestReceiveFailuresAreTyped sweeps structured corruptions and asserts
// every failure matches the wifi sentinel taxonomy.
func TestReceiveFailuresAreTyped(t *testing.T) {
	wave := degradeTestWaveform(t, Mode{QAM16, Rate12})
	cases := map[string][]complex128{
		"empty":        nil,
		"tiny":         wave[:50],
		"preambleOnly": wave[:PreambleLength],
		"truncated":    wave[:PreambleLength+3*SymbolLength/2],
		"zeros":        make([]complex128, len(wave)),
	}
	for name, c := range cases {
		_, err := (Receiver{}).Receive(c)
		if err == nil {
			t.Fatalf("%s: expected failure", name)
		}
		if !errors.Is(err, ErrShortWaveform) && !errors.Is(err, ErrBadSignal) && !errors.Is(err, ErrDemodFailed) {
			t.Fatalf("%s: untyped receive error: %v", name, err)
		}
	}
}
