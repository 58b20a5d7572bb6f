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
// beyond the payload itself; see the field docs on the underlying type.
// The SledZig codec fills every field; other codec backends fill Payload,
// Channel and Codec and leave the PHY-detail fields zero.
type DecodeResult = codec.Decoded

// DecodeOption customises one Decode call.
type DecodeOption struct {
	standard bool
}

// AsStandardFrame makes Decode treat the capture as a plain 802.11 PPDU:
// the codec-specific stages are skipped and the result carries the raw
// PSDU — useful for baseline comparisons against unmodified WiFi.
func AsStandardFrame() DecodeOption { return DecodeOption{standard: true} }

// Decode demodulates a PPDU waveform with the configured codec backend
// and returns the payload together with everything else the receive
// chain learned (see DecodeResult). For the default SledZig codec the
// protected channel is detected from the constellation and the extra
// bits are stripped; options adjust the interpretation of the capture.
func (d *Decoder) Decode(waveform []complex128, opts ...DecodeOption) (*DecodeResult, error) {
	for _, o := range opts {
		if o.standard {
			return d.decodeStandard(waveform)
		}
	}
	// Root frame trace (nil, and free, when no tracer is installed): the
	// backend lands its stage spans here.
	tf := trace.Start("decode")
	dec, err := d.decode(waveform, tf)
	tf.Finish(err)
	if err != nil {
		return nil, wrapDecodeErr(err)
	}
	return dec, nil
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

// decodeStandard skips every codec stage and returns the raw PSDU.
func (d *Decoder) decodeStandard(waveform []complex128) (*DecodeResult, error) {
	tf := trace.Start("decode")
	rx, err := wifi.Receiver{Seed: d.cfg.ScramblerSeed, Convention: d.cfg.Convention, Resync: d.cfg.Resilient, Trace: tf}.Receive(waveform)
	tf.Finish(err)
	if err != nil {
		return nil, wrapDecodeErr(err)
	}
	return &DecodeResult{
		Payload:       rx.PSDU,
		Modulation:    rx.Mode.Modulation,
		CodeRate:      rx.Mode.CodeRate,
		ScramblerSeed: d.cfg.ScramblerSeed,
		NumSymbols:    len(rx.DataPoints),
		SymbolEVM:     wifi.SymbolEVM(rx.Mode.Modulation, rx.DataPoints),
	}, nil
}
