package codec

import (
	"fmt"

	"sledzig/internal/bits"
	"sledzig/internal/core"
	"sledzig/internal/ctc"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

func init() {
	Register("ook-ctc", func(p Params) (Codec, error) {
		return newOOK(p)
	})
}

// ookMessageBits is the fixed OOK side-channel frame: a 2-bit 0/1
// preamble (so the frame always contains both energy levels — the RSSI
// receiver needs the contrast and the conformance suite needs at least
// one protected symbol) followed by an 8-bit CRC of the payload.
const ookMessageBits = 2 + 8

// ook promotes the internal/ctc energy-modulation channel onto the Codec
// contract (the SLEM/OfdmFi family the paper critiques in section VI).
// The payload rides as ordinary WiFi data inside the frame, while the
// in-band energy toggles between "high" (normal constellation) and "low"
// (SledZig-pinned) over 32-symbol groups, spelling an OOK side-channel a
// ZigBee radio reads with nothing but its RSSI register. The embedded
// message is a payload CRC, so the WiFi-side decode cross-checks the
// energy pattern against the recovered data.
//
// The band-power promise only holds on the "low" symbols (the Encoded
// ProtectedMask), which is exactly the paper's point: energy-modulation
// CTC cannot protect the whole frame.
type ook struct {
	params Params
	enc    ctc.Encoder
	dec    ctc.Decoder
	rxr    wifi.Receiver
	rx     wifi.RxResult
	plan   *core.Plan
	tr     *trace.Frame
}

func newOOK(p Params) (*ook, error) {
	if !p.Channel.Valid() {
		return nil, fmt.Errorf("codec: ook-ctc needs a protected channel, got %d", int(p.Channel))
	}
	mode := p.Mode
	if mode.Modulation == 0 {
		mode = wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}
	}
	// One frame must hold the fixed message within the PLCP LENGTH bound.
	if nBits := ookMessageBits * ctc.SymbolsPerBit * mode.DataBitsPerSymbol(); nBits > 8*wifi.MaxPSDULength+22 {
		return nil, fmt.Errorf("codec: ook-ctc message of %d bits does not fit one frame at %v", ookMessageBits, mode)
	}
	plan, err := core.CachedPlan(p.Convention, mode, p.Channel)
	if err != nil {
		return nil, err
	}
	seed := p.Seed
	if seed == 0 {
		seed = wifi.DefaultScramblerSeed
	}
	return &ook{
		params: p,
		plan:   plan,
		enc:    ctc.Encoder{Convention: p.Convention, Mode: mode, Channel: p.Channel, Seed: p.Seed},
		dec:    ctc.Decoder{Convention: p.Convention, Channel: p.Channel},
		rxr:    wifi.Receiver{Seed: seed, Convention: p.Convention, Resync: p.Resilient},
	}, nil
}

func (c *ook) Name() string { return "ook-ctc" }

func (c *ook) SetTrace(tr *trace.Frame) { c.tr = tr }

// ookMessage spells the fixed preamble plus the payload CRC.
func ookMessage(payload []byte) []bits.Bit {
	msg := make([]bits.Bit, 0, ookMessageBits)
	msg = append(msg, 0, 1)
	msg = append(msg, bits.FromBytes([]byte{crc8(payload)})...)
	return msg
}

// Encode backs the Contract's MaxEncodeAllocs=48: masked layouts are
// memoized per (plan, mask), so nothing here may allocate per symbol.
//
//sledzig:noalloc budget=48
func (c *ook) Encode(payload []byte) (*Encoded, error) {
	// MaxPayload is the worst-case (all-low) capacity; the actual capacity
	// varies with the CRC's bit pattern. Enforce the conservative bound so
	// MaxPayload is a hard contract rather than a payload-dependent one.
	if max := c.MaxPayload(); len(payload) > max {
		return nil, fmt.Errorf("codec: payload of %d octets beyond the %d-octet ook-ctc bound: %w",
			len(payload), max, core.ErrPayloadSize)
	}
	mk := c.tr.Begin("codec.embed")
	frame, err := c.enc.Encode(payload, ookMessage(payload))
	mk.End()
	if err != nil {
		return nil, err
	}
	frame.WiFi.Trace = c.tr
	wave, err := frame.WiFi.Waveform()
	frame.WiFi.Trace = nil
	if err != nil {
		return nil, err
	}
	return &Encoded{
		Waveform:       wave,
		NumSymbols:     frame.WiFi.NumSymbols,
		ProtectedMask:  frame.Mask,
		AirtimeSeconds: frame.WiFi.Duration(),
	}, nil
}

func (c *ook) Decode(waveform []complex128) (*Decoded, error) {
	c.rxr.Trace = c.tr
	if err := c.rxr.ReceiveInto(waveform, &c.rx); err != nil {
		return nil, err
	}
	mk := c.tr.Begin("codec.extract")
	payload, message, err := c.dec.Decode(&c.rx)
	mk.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDecode, err)
	}
	if !bits.Equal(message, ookMessage(payload)) {
		return nil, fmt.Errorf("%w: OOK side-channel %s disagrees with payload CRC", ErrDecode, bits.String(message))
	}
	return &Decoded{Payload: payload, Channel: c.params.Channel}, nil
}

func (c *ook) Contract() Contract {
	// Low symbols use SledZig's exact pinning, so they inherit its 3 dB
	// band-drop floor — but only the masked symbols are protected. The
	// alloc bound holds because masked layouts are memoized per (plan,
	// mask): steady-state encodes assemble and scramble, but never re-plan
	// clusters (measured ~33 allocs/op, dominated by frame assembly).
	return Contract{MinDropDB: 3.0, WholeFrame: false, MaxEncodeAllocs: 48}
}

func (c *ook) MaxPayload() int {
	n, err := c.enc.MaxPayload(ookMessageBits)
	if err != nil {
		return 0
	}
	return n
}

func (c *ook) OverheadFraction() float64 {
	// Worst case (every OOK bit low): the full SledZig per-symbol spend.
	return c.plan.ThroughputLossFraction()
}

// crc8 is the CRC-8/ATM polynomial 0x07, the payload digest the OOK
// side-channel carries.
func crc8(data []byte) byte {
	var crc byte
	for _, b := range data {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}
