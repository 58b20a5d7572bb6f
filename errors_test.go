package sledzig

import (
	"errors"
	"fmt"
	"testing"

	"sledzig/internal/core"
	"sledzig/internal/engine"
	"sledzig/internal/wifi"
)

// The typed-error taxonomy promises every public failure is reachable with
// errors.Is. Each test below provokes one sentinel end to end.

func TestErrInvalidChannelReachable(t *testing.T) {
	if _, err := NewEncoder(Config{}); !errors.Is(err, ErrInvalidChannel) {
		t.Fatalf("NewEncoder without channel: got %v, want ErrInvalidChannel", err)
	}
	if err := (Config{Channel: 9}).Validate(); !errors.Is(err, ErrInvalidChannel) {
		t.Fatalf("Validate with channel 9: got %v, want ErrInvalidChannel", err)
	}
	if _, err := NewEngine(EngineConfig{}); !errors.Is(err, ErrInvalidChannel) {
		t.Fatalf("NewEngine without channel: got %v, want ErrInvalidChannel", err)
	}
}

func TestErrPayloadTooLargeReachable(t *testing.T) {
	enc, err := NewEncoder(Config{Channel: CH2})
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	if _, err := enc.Encode(nil); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("Encode(nil): got %v, want ErrPayloadTooLarge", err)
	}
	if _, err := enc.Encode(make([]byte, 0x10000)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("Encode(64KiB+1): got %v, want ErrPayloadTooLarge", err)
	}
}

func TestErrNoPreambleReachable(t *testing.T) {
	dec, err := NewDecoder(Config{})
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if _, err := dec.Decode(make([]complex128, 50)); !errors.Is(err, ErrNoPreamble) {
		t.Fatalf("Decode(short): got %v, want ErrNoPreamble", err)
	}
	// The codec path and the standard-frame path share the identity.
	garbage := make([]complex128, 64)
	_, uerr := dec.Decode(garbage)
	_, nerr := dec.Decode(garbage, AsStandardFrame())
	for _, e := range []error{uerr, nerr} {
		if !errors.Is(e, ErrNoPreamble) {
			t.Fatalf("short-capture error %v does not wrap ErrNoPreamble", e)
		}
	}

	// Truncated mid-PPDU: the SIGNAL field promises more symbols than the
	// capture holds.
	wave := encodeTestWaveform(t, Config{Channel: CH2}, 100)
	if _, err := dec.Decode(wave[:len(wave)-wifi.SymbolLength]); !errors.Is(err, ErrNoPreamble) {
		t.Fatalf("Decode(truncated): got %v, want ErrNoPreamble", err)
	}
}

func TestErrBadSignalFieldReachable(t *testing.T) {
	wave := encodeTestWaveform(t, Config{Channel: CH2}, 60)
	// Splice in a SIGNAL symbol whose parity bit is flipped. The flipped
	// field is re-encoded into a valid codeword, so the Viterbi decoder
	// returns it verbatim and the parity check must reject it.
	field, err := wifi.SignalField(wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, 100)
	if err != nil {
		t.Fatalf("SignalField: %v", err)
	}
	field[17] ^= 1
	pts, err := wifi.SignalPoints(field[:])
	if err != nil {
		t.Fatalf("SignalPoints: %v", err)
	}
	sym, err := wifi.AssembleSymbol(pts, 0)
	if err != nil {
		t.Fatalf("AssembleSymbol: %v", err)
	}
	copy(wave[wifi.PreambleLength:], sym)
	dec, err := NewDecoder(Config{})
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if _, err := dec.Decode(wave); !errors.Is(err, ErrBadSignalField) {
		t.Fatalf("Decode(zeroed SIGNAL): got %v, want ErrBadSignalField", err)
	}
}

func TestErrNoProtectedChannelReachable(t *testing.T) {
	// A completely standard WiFi frame has no pinned subcarriers to detect.
	tx := wifi.Transmitter{Mode: wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}}
	frame, err := tx.Frame(make([]byte, 80))
	if err != nil {
		t.Fatalf("Transmitter.Frame: %v", err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatalf("Waveform: %v", err)
	}
	dec, err := NewDecoder(Config{})
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if _, err := dec.Decode(wave); !errors.Is(err, ErrNoProtectedChannel) {
		t.Fatalf("Decode(standard frame): got %v, want ErrNoProtectedChannel", err)
	}
	// AsStandardFrame remains the escape hatch for such frames.
	if _, err := dec.Decode(wave, AsStandardFrame()); err != nil {
		t.Fatalf("Decode(standard frame, AsStandardFrame): %v", err)
	}
}

func TestErrExtraBitMismatchReachable(t *testing.T) {
	// Encode under one convention, decode under the other: the pinned
	// constellation points still flag the protected channel (detection is
	// convention-independent), but the extra-bit geometry no longer lines
	// up, so the strip/header stage must reject the frame.
	wave := encodeTestWaveform(t, Config{Channel: CH2, Convention: ConventionIEEE}, 200)
	dec, err := NewDecoder(Config{Convention: ConventionPaper})
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if _, err := dec.Decode(wave); !errors.Is(err, ErrExtraBitMismatch) {
		t.Fatalf("Decode(convention mismatch): got %v, want ErrExtraBitMismatch", err)
	}
}

// encodeTestWaveform builds one SledZig PPDU with a deterministic payload.
func encodeTestWaveform(t *testing.T, cfg Config, payloadLen int) []complex128 {
	t.Helper()
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	frame, err := enc.Encode(payload)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatalf("Waveform: %v", err)
	}
	return wave
}

// chainDetail is a typed error planted at the bottom of each wrap chain so
// errors.As must traverse every layer — internal sentinel wrap, facade
// taxonomy wrap, transport wrap — to recover it.
type chainDetail struct{ site string }

func (d *chainDetail) Error() string { return "detail at " + d.site }

// publicSentinels is the complete exported taxonomy; the exclusivity leg
// below asserts each wrapped chain matches exactly one of them.
var publicSentinels = map[string]error{
	"ErrInvalidChannel":     ErrInvalidChannel,
	"ErrInvalidConfig":      ErrInvalidConfig,
	"ErrPayloadTooLarge":    ErrPayloadTooLarge,
	"ErrNoPreamble":         ErrNoPreamble,
	"ErrBadSignalField":     ErrBadSignalField,
	"ErrExtraBitMismatch":   ErrExtraBitMismatch,
	"ErrNoProtectedChannel": ErrNoProtectedChannel,
	"ErrDemodulation":       ErrDemodulation,
	"ErrFramePanicked":      ErrFramePanicked,
	"ErrFrameDeadline":      ErrFrameDeadline,
}

// TestSentinelUnwrapChains drives every internal sentinel through the
// facade wrap layer it crosses in production and asserts three properties
// of the resulting chain: errors.Is sees the public sentinel, errors.Is
// still sees the internal sentinel (the chain is not severed), and
// errors.As recovers a typed error planted at the very bottom.
func TestSentinelUnwrapChains(t *testing.T) {
	cases := []struct {
		name     string
		wrap     func(error) error
		internal error
		public   error
	}{
		{"encode/payload-size", wrapEncodeErr, core.ErrPayloadSize, ErrPayloadTooLarge},
		{"encode/frame-panic", wrapEncodeErr, engine.ErrFramePanic, ErrFramePanicked},
		{"encode/frame-timeout", wrapEncodeErr, engine.ErrFrameTimeout, ErrFrameDeadline},
		{"decode/short-waveform", wrapDecodeErr, wifi.ErrShortWaveform, ErrNoPreamble},
		{"decode/bad-signal", wrapDecodeErr, wifi.ErrBadSignal, ErrBadSignalField},
		{"decode/demod-failed", wrapDecodeErr, wifi.ErrDemodFailed, ErrDemodulation},
		{"decode/no-protected-channel", wrapDecodeErr, core.ErrNoProtectedChannel, ErrNoProtectedChannel},
		{"decode/extra-bit-layout", wrapDecodeErr, core.ErrExtraBitLayout, ErrExtraBitMismatch},
		{"decode/constraint-unsatisfied", wrapDecodeErr, core.ErrConstraintUnsatisfied, ErrExtraBitMismatch},
		{"decode/frame-panic", wrapDecodeErr, engine.ErrFramePanic, ErrFramePanicked},
		{"decode/frame-timeout", wrapDecodeErr, engine.ErrFrameTimeout, ErrFrameDeadline},
		{"engine/frame-panic", wrapEngineErr, engine.ErrFramePanic, ErrFramePanicked},
		{"engine/frame-timeout", wrapEngineErr, engine.ErrFrameTimeout, ErrFrameDeadline},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			detail := &chainDetail{site: tc.name}
			inner := fmt.Errorf("%w: %w", tc.internal, detail)
			wrapped := tc.wrap(inner)
			if !errors.Is(wrapped, tc.public) {
				t.Errorf("errors.Is(%v, public sentinel) = false", wrapped)
			}
			if !errors.Is(wrapped, tc.internal) {
				t.Errorf("wrap severed the internal chain: errors.Is(%v, internal) = false", wrapped)
			}
			var got *chainDetail
			if !errors.As(wrapped, &got) {
				t.Fatalf("errors.As failed to recover the planted detail from %v", wrapped)
			}
			if got.site != tc.name {
				t.Errorf("errors.As recovered detail from %q, want %q", got.site, tc.name)
			}
			for name, other := range publicSentinels {
				if other != tc.public && errors.Is(wrapped, other) {
					t.Errorf("chain also matches unrelated sentinel %s", name)
				}
			}
		})
	}
}

// TestConfigSentinelExclusive covers the two sentinels produced directly by
// Validate rather than a wrap layer, including that channel and non-channel
// config failures stay distinguishable.
func TestConfigSentinelExclusive(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		public error
	}{
		{"missing channel", Config{Channel: 9}, ErrInvalidChannel},
		{"bad modulation", Config{Modulation: 99, Channel: CH1}, ErrInvalidConfig},
		{"bad code rate", Config{CodeRate: 99, Channel: CH1}, ErrInvalidConfig},
		{"bad convention", Config{Convention: 7, Channel: CH1}, ErrInvalidConfig},
		{"bad scrambler seed", Config{ScramblerSeed: 200, Channel: CH1}, ErrInvalidConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if !errors.Is(err, tc.public) {
				t.Fatalf("Validate() = %v, want %v", err, tc.public)
			}
			for name, other := range publicSentinels {
				if other != tc.public && errors.Is(err, other) {
					t.Errorf("config error also matches %s", name)
				}
			}
		})
	}
}

// TestWrapLayersPassThrough pins the contract that the wrap helpers leave
// nil and out-of-taxonomy errors untouched.
func TestWrapLayersPassThrough(t *testing.T) {
	for _, wrap := range []func(error) error{wrapEncodeErr, wrapDecodeErr, wrapEngineErr} {
		if got := wrap(nil); got != nil {
			t.Errorf("wrap(nil) = %v, want nil", got)
		}
		plain := errors.New("outside the taxonomy")
		if got := wrap(plain); got != plain {
			t.Errorf("wrap(plain) = %v, want identical error back", got)
		}
	}
}

// TestTransportWrapPreservesTaxonomy feeds an undecodable waveform through
// the message layer and asserts its extra wrap (MessageReceiver.Feed's
// "fragment decode" prefix) still exposes the public sentinel.
func TestTransportWrapPreservesTaxonomy(t *testing.T) {
	mr, err := NewMessageReceiver(Config{})
	if err != nil {
		t.Fatalf("NewMessageReceiver: %v", err)
	}
	if _, err := mr.Feed(make([]complex128, 50)); !errors.Is(err, ErrNoPreamble) {
		t.Fatalf("Feed(short waveform) = %v, want ErrNoPreamble through the transport wrap", err)
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Modulation != QAM16 || c.CodeRate != Rate12 {
		t.Fatalf("defaults resolved to %v r=%v, want QAM-16 r=1/2", c.Modulation, c.CodeRate)
	}
	if c.ScramblerSeed != wifi.DefaultScramblerSeed {
		t.Fatalf("default seed %#x, want %#x", c.ScramblerSeed, wifi.DefaultScramblerSeed)
	}
	if c.Channel != 0 {
		t.Fatal("WithDefaults must not invent a channel")
	}
	// Set fields pass through untouched.
	c = Config{Modulation: QAM256, CodeRate: Rate56, Channel: CH3, ScramblerSeed: 11}.WithDefaults()
	if c.Modulation != QAM256 || c.CodeRate != Rate56 || c.Channel != CH3 || c.ScramblerSeed != 11 {
		t.Fatalf("WithDefaults altered set fields: %+v", c)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate (defaults apply): %v", err)
	}
	if err := (Config{Modulation: 99}).Validate(); err == nil {
		t.Fatal("invalid modulation accepted")
	}
	if err := (Config{CodeRate: 99}).Validate(); err == nil {
		t.Fatal("invalid code rate accepted")
	}
	if err := (Config{Convention: 7}).Validate(); err == nil {
		t.Fatal("invalid convention accepted")
	}
	if err := (Config{ScramblerSeed: 200}).Validate(); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	if err := (Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH1}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
