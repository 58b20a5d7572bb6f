package sledzig

import (
	"sync"

	"sledzig/internal/codec"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

// Decoder recovers payloads from received waveforms using the configured
// codec backend (SledZig by default). It is safe for concurrent use, but
// calls serialize on one backend instance: parallel decoding is the
// Engine's job.
type Decoder struct {
	cfg Config

	// cdc holds recycled demodulation state, so calls serialize on mu.
	cdc codec.Codec
	mu  sync.Mutex
}

// NewDecoder resolves the config defaults, validates it, and prepares the
// selected codec backend. For the default SledZig codec only Convention,
// ScramblerSeed and Resilient matter (mode and channel are read off the
// air); other codecs also need the Channel their receiver is fixed on.
func NewDecoder(cfg Config) (*Decoder, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	backend := cfg
	if cfg.Codec == CodecSledZig {
		// The backend needs a pinnable mode and a channel only to encode;
		// any pair serves, so a mode-less or BPSK config still decodes.
		backend.Modulation, backend.CodeRate, backend.Channel = QAM16, Rate12, CH1
	}
	cdc, err := backend.newCodec()
	if err != nil {
		return nil, err
	}
	return &Decoder{cfg: cfg, cdc: cdc}, nil
}

// DecodeResult carries everything Decode learns about a received frame
// beyond the payload itself. The SledZig codec fills every field; other
// codec backends fill Payload, Channel and Codec and leave the
// PHY-detail fields zero.
type DecodeResult struct {
	// Payload is the recovered original payload.
	Payload []byte
	// Channel is the protected ZigBee channel (detected from the
	// constellation for SledZig, configured for fixed-channel codecs;
	// zero for standard-frame decodes).
	Channel Channel
	// Codec names the backend that produced the result; empty for
	// standard-frame decodes (AsStandardFrame).
	Codec string
	// Modulation and CodeRate are the mode signalled in the PLCP header.
	Modulation Modulation
	CodeRate   CodeRate
	// ScramblerSeed is the seed the descrambler used (the configured one,
	// or the 802.11 Annex G default).
	ScramblerSeed uint8
	// ExtraBits is how many extra bits the frame spent on the
	// constellation constraints.
	ExtraBits int
	// NumSymbols is the DATA-field length in OFDM symbols.
	NumSymbols int
	// SymbolEVM is the per-DATA-symbol RMS error-vector magnitude of the
	// equalized constellation points against the nearest ideal points
	// (linear scale, relative to unit average constellation power). On a
	// clean channel it is ~0; it grows with noise and residual channel
	// error.
	SymbolEVM []float64
}

// DecodeOption customises one Decode call.
type DecodeOption func(*decodeOptions)

type decodeOptions struct {
	standard bool
}

// AsStandardFrame makes Decode treat the capture as a plain 802.11 PPDU:
// the codec-specific stages are skipped and the result carries the raw
// PSDU — useful for baseline comparisons against unmodified WiFi.
func AsStandardFrame() DecodeOption {
	return func(o *decodeOptions) { o.standard = true }
}

// Decode demodulates a PPDU waveform with the configured codec backend
// and returns the payload together with everything else the receive
// chain learned (see DecodeResult). For the default SledZig codec the
// protected channel is detected from the constellation and the extra
// bits are stripped; options adjust the interpretation of the capture.
func (d *Decoder) Decode(waveform []complex128, opts ...DecodeOption) (*DecodeResult, error) {
	var o decodeOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.standard {
		return d.decodeStandard(waveform)
	}
	// Root frame trace (nil, and free, when no tracer is installed): the
	// backend lands its stage spans here.
	tf := trace.Start("decode")
	dec, err := d.decode(waveform, tf)
	tf.Finish(err)
	if err != nil {
		return nil, wrapDecodeErr(err)
	}
	return resultFrom(d.cfg.Codec, dec), nil
}

// decode runs the backend under the mutex, deferring the unlock so a
// panicking backend never leaves the Decoder locked.
func (d *Decoder) decode(waveform []complex128, tf *trace.Frame) (*codec.Decoded, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cdc.SetTrace(tf)
	defer d.cdc.SetTrace(nil)
	return d.cdc.Decode(waveform)
}

// resultFrom maps a backend's decode onto the public result, sharing its
// slices: every backend hands out self-contained results.
func resultFrom(codecName string, dec *codec.Decoded) *DecodeResult {
	return &DecodeResult{
		Payload:       dec.Payload,
		Channel:       dec.Channel,
		Codec:         codecName,
		Modulation:    dec.Mode.Modulation,
		CodeRate:      dec.Mode.CodeRate,
		ScramblerSeed: dec.ScramblerSeed,
		ExtraBits:     dec.ExtraBits,
		NumSymbols:    dec.NumSymbols,
		SymbolEVM:     dec.SymbolEVM,
	}
}

// seed resolves the configured scrambler seed.
func (d *Decoder) seed() uint8 {
	if d.cfg.ScramblerSeed == 0 {
		return wifi.DefaultScramblerSeed
	}
	return d.cfg.ScramblerSeed
}

// decodeStandard skips every codec stage and returns the raw PSDU.
func (d *Decoder) decodeStandard(waveform []complex128) (*DecodeResult, error) {
	seed := d.seed()
	tf := trace.Start("decode")
	rx, err := wifi.Receiver{Seed: seed, Convention: d.cfg.Convention, Resync: d.cfg.Resilient, Trace: tf}.Receive(waveform)
	tf.Finish(err)
	if err != nil {
		return nil, wrapDecodeErr(err)
	}
	return &DecodeResult{
		Payload:       rx.PSDU,
		Modulation:    rx.Mode.Modulation,
		CodeRate:      rx.Mode.CodeRate,
		ScramblerSeed: seed,
		NumSymbols:    len(rx.DataPoints),
		SymbolEVM:     wifi.SymbolEVM(rx.Mode.Modulation, rx.DataPoints),
	}, nil
}
