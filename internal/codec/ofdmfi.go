package codec

import (
	"fmt"
	"math/cmplx"
	"slices"

	"sledzig/internal/core"
	"sledzig/internal/dsp"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

func init() {
	Register("ofdmfi", func(p Params) (Codec, error) {
		return newOfdmFi(p)
	})
}

const (
	// ofdmFiGroupSize data subcarriers share one message chip, giving the
	// RSSI-grade receiver 4 x 312.5 kHz = 1.25 MHz of power per chip.
	ofdmFiGroupSize = 4
	// ofdmFiLoAmp is the "low" subcarrier amplitude: power 1/16, a 12 dB
	// per-subcarrier drop before leakage.
	ofdmFiLoAmp = 0.25
	// ofdmFiMaxSymbols bounds one frame (about 16 ms of airtime), standing
	// in for the PLCP LENGTH bound a standards frame would have.
	ofdmFiMaxSymbols = 4096
	invSqrt2         = 0.7071067811865476
)

// ofdmFi is an OfdmFi-style message-embedding backend: the frame is an
// 802.11 preamble (so WiFi neighbours defer to it) followed by OFDM
// symbols whose subcarrier power pattern IS the message. The 48 data
// subcarriers split into 12 groups of 4; each unprotected group carries
// one chip per symbol (high amplitude = bit 1, low = bit 0), readable by
// narrowband RSSI sampling of the group's 1.25 MHz slice. Groups and
// pilots overlapping the protected ZigBee channel are held at the low
// amplitude for the whole frame, so the band-power promise covers every
// symbol — but, unlike SledZig, the frame carries no WiFi payload at
// all: the entire DATA field is spent on the embedded message
// (OverheadFraction 1).
//
// The embedded message is framed as a 16-bit little-endian byte length,
// the payload bytes, and a CRC-8, all LSB-first per byte.
type ofdmFi struct {
	params Params
	*ofdmFiGeometry
	tr *trace.Frame
	// raw is Decode's chips, packed eight to an octet as Assemble framed
	// them, reused from frame to frame.
	raw []byte
}

// ofdmFiGeometry is an instance's subcarrier plan, fixed at construction:
// its frames keep a pointer to it and read it while they render.
type ofdmFiGeometry struct {
	msg    []int // indices of the groups (ofdmFiGroup) that carry message chips
	refPil []int // pilot subcarriers outside the protected band
	loPil  []int // FFT bins of protected-band pilots, attenuated per symbol
}

// ofdmFiGroups is the number of data-subcarrier groups.
const ofdmFiGroups = wifi.NumDataSubcarriers / ofdmFiGroupSize

// ofdmFiGroup returns group g's data subcarriers: the groups partition
// wifi.DataSubcarriers() in order, so group g spans data indices
// [g*ofdmFiGroupSize, (g+1)*ofdmFiGroupSize).
func ofdmFiGroup(g int) []int {
	return wifi.DataSubcarriers()[g*ofdmFiGroupSize : (g+1)*ofdmFiGroupSize]
}

func newOfdmFi(p Params) (*ofdmFi, error) {
	if !p.Channel.Valid() {
		return nil, fmt.Errorf("codec: ofdmfi needs a protected channel, got %d", int(p.Channel))
	}
	window := p.Channel.SubcarrierWindow()
	c := &ofdmFi{params: p, ofdmFiGeometry: new(ofdmFiGeometry)}
	for g := range ofdmFiGroups {
		if !slices.ContainsFunc(ofdmFiGroup(g), func(k int) bool { return slices.Contains(window, k) }) {
			c.msg = append(c.msg, g)
		}
	}
	for _, k := range wifi.PilotSubcarriers() {
		if !slices.Contains(window, k) {
			c.refPil = append(c.refPil, k)
		}
	}
	for _, k := range p.Channel.PilotSubcarriers() {
		c.loPil = append(c.loPil, fftBin(k))
	}
	if len(c.msg) == 0 || len(c.refPil) == 0 {
		return nil, fmt.Errorf("codec: ofdmfi has no usable groups for channel %d", int(p.Channel))
	}
	return c, nil
}

func (c *ofdmFi) Name() string { return "ofdmfi" }

func (c *ofdmFi) SetTrace(tr *trace.Frame) { c.tr = tr }

// chip returns the QPSK point for (symbol, subcarrier), decorrelating
// bins with a splitmix-style hash so the waveform is noise-like rather
// than a comb of identical tones. Power measurement ignores the phase.
func chip(sym, k int) complex128 {
	x := uint64(sym+1)*0x9E3779B97F4A7C15 ^ uint64(k+64)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	re, im := invSqrt2, invSqrt2
	if x&1 != 0 {
		re = -re
	}
	if x&2 != 0 {
		im = -im
	}
	return complex(re, im)
}

// ofdmFiFrame is an assembled ofdmfi frame: the framed message, eight
// bits to an octet (bit i is bit i%8 of octet i/8, the order Decode packs
// them back in), and the geometry of the instance that framed it.
type ofdmFiFrame struct {
	enc    Encoded
	framed []byte
	geo    *ofdmFiGeometry
}

// Assemble frames the payload: its length, the payload and its CRC-8.
//
//sledzig:noalloc budget=2
func (c *ofdmFi) Assemble(payload []byte) (*Encoded, error) {
	if len(payload) > c.MaxPayload() {
		return nil, fmt.Errorf("%w: ofdmfi payload of %d octets exceeds %d", core.ErrPayloadSize, len(payload), c.MaxPayload())
	}
	framed := make([]byte, 0, len(payload)+3)
	framed = append(framed, byte(len(payload)), byte(len(payload)>>8))
	framed = append(framed, payload...)
	f := &ofdmFiFrame{framed: append(framed, crc8(payload)), geo: c.ofdmFiGeometry}
	f.enc = Encoded{NumSymbols: (8*len(f.framed) + len(c.msg) - 1) / len(c.msg), frame: f}
	f.enc.AirtimeSeconds = float64(f.samples()) / wifi.SampleRate
	return &f.enc, nil
}

func (c *ofdmFi) Encode(payload []byte) (*Encoded, error) { return encode(c, payload, c.tr) }

func (f *ofdmFiFrame) samples() int { return wifi.PreambleLength + f.enc.NumSymbols*wifi.SymbolLength }

// appendTo synthesizes the frame symbol by symbol, which is where the
// message is embedded in the subcarrier power (codec.ofdmfi.embed). It
// allocates nothing, since AppendWaveform grew wave to the PPDU, and its
// symbol loop must never allocate per iteration.
//
//sledzig:noalloc budget=0
func (f *ofdmFiFrame) appendTo(wave []complex128, tr *trace.Frame) (_ []complex128, err error) {
	mk := tr.Begin(stages().ofdmfiEmbed)
	defer func() { mk.End(len(f.framed)-3, err) }()
	nBits, perSym := 8*len(f.framed), len(f.geo.msg)
	wave = wifi.AppendPreamble(wave)
	var data [wifi.NumDataSubcarriers]complex128
	freq := make([]complex128, wifi.NumSubcarriers)
	td := make([]complex128, wifi.NumSubcarriers)
	for s := 0; s < f.enc.NumSymbols; s++ {
		// Protected (and padding) groups stay low; message groups carry
		// their chip's amplitude.
		next := 0
		for g := range ofdmFiGroups {
			amp := ofdmFiLoAmp
			if next < perSym && f.geo.msg[next] == g {
				if idx := s*perSym + next; idx < nBits && f.framed[idx/8]>>(idx%8)&1 == 1 {
					amp = 1
				}
				next++
			}
			for j, k := range ofdmFiGroup(g) {
				data[g*ofdmFiGroupSize+j] = complex(amp, 0) * chip(s, k)
			}
		}
		if err := wifi.SubcarrierMapInto(freq, data[:], s+1); err != nil {
			return nil, err
		}
		// Pilots cannot be dropped (receivers track them), but the one
		// inside the protected band is attenuated like its neighbours.
		for _, b := range f.geo.loPil {
			freq[b] *= complex(ofdmFiLoAmp, 0)
		}
		if err := dsp.IFFTInto(td, freq); err != nil {
			return nil, err
		}
		wave = append(wave, td[wifi.NumSubcarriers-wifi.CPLength:]...) //sledvet:ignore hotalloc Encoded.AppendWaveform grows wave to the whole PPDU before the render, so neither append ever grows the backing array
		wave = append(wave, td...)
	}
	return wave, nil
}

// Decode sizes its buffers before the symbol loop, never inside it, and
// keeps its chips on the instance: a steady-state call allocates the
// payload and the result.
//
//sledzig:noalloc budget=2
func (c *ofdmFi) Decode(waveform []complex128) (_ *Decoded, err error) {
	var payload []byte
	mk := c.tr.Begin(stages().ofdmfiExtract)
	defer func() { mk.End(len(payload), err) }()
	body := len(waveform) - wifi.PreambleLength
	if body < wifi.SymbolLength {
		return nil, fmt.Errorf("%w: ofdmfi capture of %d samples holds no symbols", ErrDecode, len(waveform))
	}
	nSym := body / wifi.SymbolLength
	freq := make([]complex128, wifi.NumSubcarriers)
	nBits := nSym * len(c.msg)
	raw := append(c.raw[:0], make([]byte, (nBits+7)/8)...)
	c.raw = raw
	// Accumulated per-channel window power, to verify the protected band
	// really is the quiet one.
	var bandPower [4]float64
	for s := 0; s < nSym; s++ {
		start := wifi.PreambleLength + s*wifi.SymbolLength
		if err := wifi.FrequencyDomainInto(freq, waveform[start:start+wifi.SymbolLength]); err != nil {
			return nil, err
		}
		// Reference "high" power from the pilots outside the protected
		// band (unit amplitude at the transmitter, so they track the
		// link gain).
		var hiRef float64
		for _, k := range c.refPil {
			hiRef += binPower(freq[fftBin(k)])
		}
		hiRef /= float64(len(c.refPil))
		if hiRef <= 0 {
			return nil, fmt.Errorf("%w: ofdmfi capture has no pilot energy in symbol %d", ErrDecode, s)
		}
		threshold := hiRef * (1 + ofdmFiLoAmp*ofdmFiLoAmp) / 2
		for j, g := range c.msg {
			var p float64
			for _, k := range ofdmFiGroup(g) {
				p += binPower(freq[fftBin(k)])
			}
			if p/ofdmFiGroupSize > threshold {
				i := s*len(c.msg) + j
				raw[i/8] |= 1 << (i % 8)
			}
		}
		for ch := core.CH1; ch <= core.CH4; ch++ {
			win := ch.SubcarrierWindow()
			var p float64
			for _, k := range win {
				p += binPower(freq[fftBin(k)])
			}
			bandPower[ch-core.CH1] += p / float64(len(win))
		}
	}
	// Reject only when another window is clearly quieter (half the
	// protected band's power or less): a low-entropy message holds the
	// other windows as low as the protected one, and a tie is no evidence.
	own := bandPower[c.params.Channel-core.CH1]
	for ch := core.CH1; ch <= core.CH4; ch++ {
		if ch != c.params.Channel && bandPower[ch-core.CH1] <= own/2 {
			return nil, fmt.Errorf("%w: ofdmfi protected band %d is not the quietest window", ErrDecode, int(c.params.Channel))
		}
	}
	if nBits < 16 {
		return nil, fmt.Errorf("%w: ofdmfi message truncated at %d bits", ErrDecode, nBits)
	}
	n := int(raw[0]) | int(raw[1])<<8
	if total := 16 + 8*n + 8; nBits < total {
		return nil, fmt.Errorf("%w: ofdmfi header says %d octets but capture holds %d bits", ErrDecode, n, nBits)
	}
	if crc8(raw[2:2+n]) != raw[2+n] {
		return nil, fmt.Errorf("%w: ofdmfi CRC mismatch", ErrDecode)
	}
	// The payload is the caller's: copy it out of the instance's chips.
	payload = slices.Clone(raw[2 : 2+n])
	return &Decoded{Payload: payload, Channel: c.params.Channel}, nil
}

func (c *ofdmFi) Contract() Contract {
	// Every in-band subcarrier (data and pilot) runs at amplitude 1/4
	// for the whole frame: 12 dB per subcarrier, 6 dB band floor after
	// leakage from the adjacent full-power groups. A render synthesizes
	// the waveform append-style into one exact-capacity buffer with
	// precomputed bin indices (measured 3 allocs/op regardless of payload
	// size: the result with its frame, the framed message, the waveform).
	return Contract{MinDropDB: 6.0, WholeFrame: true, MaxEncodeAllocs: 5}
}

func (c *ofdmFi) MaxPayload() int {
	return (ofdmFiMaxSymbols*len(c.msg) - 16 - 8) / 8
}

// OverheadFraction is 1: the frame spends its entire DATA field on the
// embedded message and carries no WiFi payload — the throughput cost the
// paper's section VI holds against message-embedding CTC.
func (c *ofdmFi) OverheadFraction() float64 { return 1.0 }

// fftBin converts a signed subcarrier index to an FFT bin index.
func fftBin(k int) int {
	return ((k % wifi.NumSubcarriers) + wifi.NumSubcarriers) % wifi.NumSubcarriers
}

func binPower(v complex128) float64 {
	m := cmplx.Abs(v)
	return m * m
}
