package codec

import (
	"fmt"

	"sledzig/internal/bits"
	"sledzig/internal/core"
	"sledzig/internal/dsp"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

func init() {
	Register("ook-ctc", func(p Params) (Codec, error) {
		return newOOK(p)
	})
}

const (
	// ookSymbolsPerBit is how many OFDM symbols (4 us each) spell one OOK
	// bit. ZigBee RSSI registers integrate over 8 symbol periods (128 us),
	// so 32 OFDM symbols per bit give the receiver a full averaging window
	// per level.
	ookSymbolsPerBit = 32
	// ookMessageBits is the fixed OOK side-channel frame: a 2-bit 0/1
	// preamble (so the frame always contains both energy levels — the RSSI
	// receiver needs the contrast and the conformance suite needs at least
	// one protected symbol) followed by an 8-bit CRC of the payload.
	ookMessageBits = 2 + 8
	// ookSymbols is the DATA-field length of every ook-ctc frame.
	ookSymbols = ookMessageBits * ookSymbolsPerBit
)

// ook is the symbol-level energy-modulation channel the paper discusses
// as related work (SLEM, OfdmFi — section VI), on the Codec contract. The
// payload rides as ordinary WiFi data inside the frame, while the in-band
// energy toggles between "high" (normal constellation) and "low"
// (SledZig-pinned) over 32-symbol groups, spelling an OOK side-channel a
// ZigBee radio reads with nothing but its RSSI register (ReadOOKRSSI).
// The "low" level uses SledZig's exact pinning, so it is as low as payload
// encoding can make it — the paper's critique of SLEM is precisely that
// its points "cannot always be the designated lowest ones". The embedded
// message is a payload CRC, so the WiFi-side decode cross-checks the
// energy pattern against the recovered data.
//
// The band-power promise only holds on the "low" symbols (the Encoded
// ProtectedMask), which is exactly the paper's point: energy-modulation
// CTC cannot protect the whole frame.
type ook struct {
	params Params
	rxr    wifi.Receiver
	rx     wifi.RxResult
	plan   *core.Plan
	tr     *trace.Frame
	// maxPayload is MaxPayload, fixed at construction.
	maxPayload int
	// mask is Decode's recovered pinning mask, reused from frame to frame.
	mask [ookSymbols]bool
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
	if nBits := ookSymbols * mode.DataBitsPerSymbol(); nBits > 8*wifi.MaxPSDULength+22 {
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
		rxr:    wifi.Receiver{Seed: seed, Convention: p.Convention, Resync: p.Resilient},
		// The worst case pins every symbol (all message bits low): the
		// capacity of a plain SledZig frame of the same length.
		maxPayload: (&core.Encoder{Plan: plan}).MaxPayload(ookSymbols),
	}, nil
}

func (c *ook) Name() string { return "ook-ctc" }

func (c *ook) SetTrace(tr *trace.Frame) { c.tr = tr }

// ookMessage spells the fixed 0/1 preamble, then the payload CRC-8, least
// significant bit first.
func ookMessage(payload []byte) [ookMessageBits]bits.Bit {
	msg := [ookMessageBits]bits.Bit{0, 1}
	crc := crc8(payload)
	for i := range 8 {
		msg[2+i] = bits.Bit(crc >> i & 1)
	}
	return msg
}

// Assemble keeps the masked frame and its pinning mask (the result's
// ProtectedMask): one allocation holds the result and the mask, and the
// frame and its encoder input are the others. A masked frame walks the
// plan's two-symbol tile, so nothing here may allocate per symbol.
//
//sledzig:noalloc budget=3
func (c *ook) Assemble(payload []byte) (*Encoded, error) {
	// MaxPayload is the worst-case (all-low) capacity; the actual capacity
	// varies with the CRC's bit pattern. Enforce the conservative bound so
	// MaxPayload is a hard contract rather than a payload-dependent one.
	if len(payload) > c.maxPayload {
		return nil, fmt.Errorf("codec: payload of %d octets beyond the %d-octet ook-ctc bound: %w",
			len(payload), c.maxPayload, core.ErrPayloadSize)
	}
	mk := c.tr.Begin(stages().ookEmbed)
	box := new(struct {
		enc  Encoded
		mask [ookSymbols]bool
	})
	// A low (pinned) group spells bit 0.
	mask := box.mask[:]
	for i, b := range ookMessage(payload) {
		if b == 0 {
			group := mask[i*ookSymbolsPerBit : (i+1)*ookSymbolsPerBit]
			for s := range group {
				group[s] = true
			}
		}
	}
	frame, err := core.AssembleMaskedFrame(c.plan, mask, payload, c.params.Seed)
	mk.End(len(payload), err)
	if err != nil {
		return nil, err
	}
	box.enc = Encoded{
		NumSymbols:     frame.NumSymbols,
		ProtectedMask:  mask,
		AirtimeSeconds: frame.Duration(),
		frame:          (*wifiFrame)(frame),
	}
	return &box.enc, nil
}

func (c *ook) Encode(payload []byte) (*Encoded, error) { return encode(c, payload, c.tr) }

//sledzig:noalloc budget=2
func (c *ook) Decode(waveform []complex128) (*Decoded, error) {
	c.rxr.Trace = c.tr
	if err := c.rxr.ReceiveInto(waveform, &c.rx); err != nil {
		return nil, err
	}
	mk := c.tr.Begin(stages().ookExtract)
	payload, err := c.extract()
	mk.End(len(payload), err)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDecode, err)
	}
	return &Decoded{Payload: payload, Channel: c.params.Channel}, nil
}

// extract recovers the OOK message and the pinning mask from the received
// constellation, then strips the payload under that mask. A symbol is
// "low" when every overlapped data subcarrier sits on the lowest ring;
// each 32-symbol group majority-votes into one bit, and the mask is
// regularized to the decided bits so the layout matches the transmitter's.
func (c *ook) extract() ([]byte, error) {
	if n := len(c.rx.DataPoints); n != ookSymbols {
		return nil, fmt.Errorf("frame of %d symbols does not spell a %d-bit OOK message", n, ookMessageBits)
	}
	ring := 2 * wifi.NormFactor(c.rx.Mode.Modulation)
	indices := c.params.Channel.DataIndices()
	var msg [ookMessageBits]bits.Bit
	for i := range msg {
		lows := 0
		for _, pts := range c.rx.DataPoints[i*ookSymbolsPerBit : (i+1)*ookSymbolsPerBit] {
			low := true
			for _, idx := range indices {
				if p := pts[idx]; real(p) > ring || real(p) < -ring || imag(p) > ring || imag(p) < -ring {
					low = false
					break
				}
			}
			if low {
				lows++
			}
		}
		if lows <= ookSymbolsPerBit/2 {
			msg[i] = 1
		}
		group := c.mask[i*ookSymbolsPerBit : (i+1)*ookSymbolsPerBit]
		for s := range group {
			group[s] = msg[i] == 0
		}
	}
	plan, err := core.CachedPlan(c.params.Convention, c.rx.Mode, c.params.Channel)
	if err != nil {
		return nil, err
	}
	payload, err := core.StripMaskedPayload(plan, c.mask[:], c.rx.DataBits)
	if err != nil {
		return nil, err
	}
	if msg != ookMessage(payload) {
		return nil, fmt.Errorf("OOK side-channel %s disagrees with payload CRC", bits.String(msg[:]))
	}
	return payload, nil
}

// ReadOOKRSSI is the ZigBee side of ook-ctc: it reads a frame's 10-bit
// message from band power alone — what a CC2420's RSSI register
// provides — knowing nothing about 802.11. data is the frame's DATA field
// at 20 MS/s, aligned to its first sample; ch is the channel the device
// listens on. Each bit is the band power of one 32-symbol window against
// the midpoint of the lowest and highest window, and a capture whose
// windows span less than 2 dB is rejected as carrying no OOK contrast.
func ReadOOKRSSI(data []complex128, ch core.ZigBeeChannel) ([]bits.Bit, error) {
	const window = ookSymbolsPerBit * wifi.SymbolLength
	if len(data) < ookMessageBits*window {
		return nil, fmt.Errorf("codec: capture of %d samples shorter than %d bits x %d samples",
			len(data), ookMessageBits, window)
	}
	lo, hi := ch.BandHz()
	var levels [ookMessageBits]float64
	minL, maxL := 0.0, 0.0
	for i := range levels {
		p, err := dsp.BandPower(data[i*window:(i+1)*window], wifi.SampleRate, lo, hi)
		if err != nil {
			return nil, err
		}
		levels[i] = dsp.DB(p)
		if i == 0 || levels[i] < minL {
			minL = levels[i]
		}
		if i == 0 || levels[i] > maxL {
			maxL = levels[i]
		}
	}
	if maxL-minL < 2 {
		return nil, fmt.Errorf("codec: no OOK contrast in the capture (%.1f dB span)", maxL-minL)
	}
	threshold := (minL + maxL) / 2
	out := make([]bits.Bit, ookMessageBits)
	for i, l := range levels {
		if l > threshold {
			out[i] = 1
		}
	}
	return out, nil
}

func (c *ook) Contract() Contract {
	// Low symbols use SledZig's exact pinning, so they inherit its 3 dB
	// band-drop floor — but only the masked symbols are protected. The
	// alloc bound is 1.5x the measured steady state: a masked frame walks
	// the plan's two-symbol tile, so encodes assemble and scramble but
	// never re-plan clusters (measured 4 allocs/op: the result with its
	// mask, the frame and its encoder input, and the waveform).
	return Contract{MinDropDB: 3.0, WholeFrame: false, MaxEncodeAllocs: 6}
}

func (c *ook) MaxPayload() int { return c.maxPayload }

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
