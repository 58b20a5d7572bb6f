package codec

import (
	"sledzig/internal/bits"
	"sledzig/internal/core"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

func init() {
	Register("sledzig", func(p Params) (Codec, error) {
		return newSledZig(p), nil
	})
}

// sledZig is the paper's mechanism promoted onto the Codec contract: every
// DATA symbol's subcarriers overlapping the protected channel are pinned
// to the lowest-power constellation points via extra payload bits, so the
// whole frame honours the band-power promise while remaining a 100%
// standard PPDU carrying the payload as ordinary (strippable) WiFi data.
//
// Every SledZig encode and decode in the facade and the engine runs
// through this backend, as do the conformance suite and the experiment
// harness.
type sledZig struct {
	params Params
	enc    core.Encoder // its Plan is set by the first Assemble
	rxr    wifi.Receiver
	rx     *wifi.RxResult // Decode's scratch, made on the first Decode
	dec    core.Decoder
	tr     *trace.Frame
}

func newSledZig(p Params) *sledZig {
	seed := p.Seed
	if seed == 0 {
		seed = wifi.DefaultScramblerSeed
	}
	return &sledZig{
		params: p,
		enc:    core.Encoder{Seed: p.Seed},
		rxr:    wifi.Receiver{Seed: seed, Convention: p.Convention, Resync: p.Resilient},
		dec:    core.Decoder{Convention: p.Convention},
	}
}

// plan looks the configured mode's plan up in the process-wide cache,
// only for the calls that need it: a decoder reads mode and channel off
// the air, so a decode-only instance never builds one. Only Assemble,
// which the facade serializes, keeps it on the instance; MaxPayload and
// OverheadFraction, which it does not, write nothing.
func (c *sledZig) plan() (*core.Plan, error) {
	return core.CachedPlan(c.params.Convention, c.params.Mode, c.params.Channel)
}

func (c *sledZig) Name() string { return "sledzig" }

func (c *sledZig) SetTrace(tr *trace.Frame) { c.tr = tr }

// sledZigFrame is an assembled SledZig frame: its standard PPDU, the seed
// that scrambled it (TransmitBits descrambles with it) and its extra-bit
// count. The seed and the count share one word, so the frame and its
// Encoded fit one 128 B allocation.
type sledZigFrame struct {
	wifiFrame
	seed  uint8
	extra int32
}

func (*sledZigFrame) codec() string { return "sledzig" }

func (*sledZigFrame) mask() []bool { return nil } // every symbol is pinned

func (f *sledZigFrame) extraBits() int { return int(f.extra) }

func (f *sledZigFrame) transmitBits() []bits.Bit {
	return (&core.EncodeResult{Frame: (*wifi.Frame)(&f.wifiFrame), Seed: f.seed}).TransmitBits()
}

// Assemble encodes into a fresh box, never a reused result, so the frame
// outlives the instance's next encode: one allocation holds the Encoded
// and its frame, the other is the frame's encoder input. Every symbol
// carries the plan's extra bits, so the frame walks the plan's tile and
// lists no positions.
//
//sledzig:noalloc budget=2
func (c *sledZig) Assemble(payload []byte) (*Encoded, error) {
	if c.enc.Plan == nil {
		plan, err := c.plan()
		if err != nil {
			return nil, err
		}
		c.enc.Plan = plan
	}
	box := new(struct {
		enc   Encoded
		frame sledZigFrame
	})
	res := core.EncodeResult{Frame: (*wifi.Frame)(&box.frame.wifiFrame)}
	c.enc.Trace = c.tr
	if err := c.enc.AssembleTo(payload, &res); err != nil {
		return nil, err
	}
	// Detach the encode's trace: each render names its own.
	box.frame.Trace = nil
	box.frame.seed, box.frame.extra = res.Seed, int32(res.Frame.NumSymbols*c.enc.Plan.ExtraBitsPerSymbol())
	box.enc.Frame = Frame{&box.frame}
	return &box.enc, nil
}

func (c *sledZig) Encode(payload []byte) (*Encoded, error) { return encode(c, payload, c.tr) }

func (c *sledZig) Decode(waveform []complex128) (*Decoded, error) {
	if c.rx == nil {
		c.rx = new(wifi.RxResult)
	}
	c.rxr.Trace = c.tr
	c.dec.Trace = c.tr
	if err := c.rxr.ReceiveInto(waveform, c.rx); err != nil {
		return nil, err
	}
	payload, ch, err := c.dec.DecodeAuto(c.rx)
	if err != nil {
		return nil, err
	}
	res := &Decoded{
		Payload:       payload,
		Channel:       ch,
		Codec:         c.Name(),
		Modulation:    c.rx.Mode.Modulation,
		CodeRate:      c.rx.Mode.CodeRate,
		ScramblerSeed: c.rxr.Seed,
		NumSymbols:    len(c.rx.DataPoints),
		SymbolEVM:     wifi.SymbolEVM(c.rx.Mode.Modulation, c.rx.DataPoints),
	}
	// Every symbol of the detected plan carries the same extra bits; the
	// plan is cached process-wide.
	if plan, perr := core.CachedPlan(c.dec.Convention, c.rx.Mode, ch); perr == nil {
		res.ExtraBits = plan.ExtraBitsPerSymbol() * len(c.rx.DataPoints)
	}
	return res, nil
}

func (c *sledZig) Contract() Contract {
	// The per-subcarrier drop is 7.0/13.2/19.3 dB (paper III-B), but the
	// 2 MHz band-power drop is bounded by the unpinnable pilots and
	// spectral leakage from neighbouring subcarriers; the paper's Fig. 12
	// measures 4-8 dB. 3 dB is the honest floor across modes.
	// Encode allocates the result box, the encoder input and the
	// waveform (measured 3 allocs/op).
	return Contract{MinDropDB: 3.0, WholeFrame: true, MaxEncodeAllocs: 3}
}

// MaxPayload is 0 when the configured mode cannot be pinned.
func (c *sledZig) MaxPayload() int {
	plan, err := c.plan()
	if err != nil {
		return 0
	}
	maxSym := (8*wifi.MaxPSDULength + 22) / plan.Mode.DataBitsPerSymbol()
	return plan.MaxPayload(maxSym)
}

// OverheadFraction is 1 when the configured mode cannot be pinned.
func (c *sledZig) OverheadFraction() float64 {
	plan, err := c.plan()
	if err != nil {
		return 1
	}
	return plan.ThroughputLossFraction()
}
