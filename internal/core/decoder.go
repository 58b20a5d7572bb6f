package core

import (
	"fmt"
	"math"

	"sledzig/internal/bits"
	"sledzig/internal/obs/trace"
	"sledzig/internal/wifi"
)

// Decoder inverts the SledZig encoding at the WiFi receiver: it strips the
// extra bits (whose positions follow from the on-air mode and the detected
// ZigBee channel) and returns the original payload. Mode and coding rate
// come from the PLCP header; the ZigBee channel is detected from the
// constellation points themselves (paper section IV-G).
type Decoder struct {
	Convention wifi.Convention
	// Trace, when non-nil, receives one child span per SledZig decode
	// stage (core.decode.detect, core.decode.strip). A nil Trace costs
	// one nil check per stage.
	Trace *trace.Frame
}

// DecodeAuto detects the protected channel and decodes.
func (d Decoder) DecodeAuto(rx *wifi.RxResult) ([]byte, ZigBeeChannel, error) {
	m := metrics()
	mk := d.Trace.Begin(m.decDetect)
	ch, ok := d.DetectChannel(rx.Mode.Modulation, rx.DataPoints)
	if !ok {
		err := fmt.Errorf("core: no SledZig-protected channel detected: %w", ErrNoProtectedChannel)
		mk.End(0, err)
		m.fail(m.failDetect, "core.decode", "decode_fail.detect", err)
		return nil, 0, err
	}
	mk.End(0, nil)
	payload, err := d.Decode(rx, ch)
	return payload, ch, err
}

// Decode recovers the payload from a received frame, given the protected
// channel (use DetectChannel first when it is unknown). Plans come from the
// process-wide cache; the strip walks the plan's tile, and the payload is
// the one allocation.
//
//sledzig:noalloc budget=1
func (d Decoder) Decode(rx *wifi.RxResult, ch ZigBeeChannel) (payload []byte, err error) {
	plan, err := CachedPlan(d.Convention, rx.Mode, ch)
	if err != nil {
		return nil, err
	}
	m := metrics()
	mk := d.Trace.Begin(m.decStrip)
	defer func() { mk.End(len(payload), err) }()
	nDBPS := plan.Mode.DataBitsPerSymbol()
	if len(rx.DataBits)%nDBPS != 0 {
		err := fmt.Errorf("core: DATA field of %d bits is not whole symbols of %d: %w", len(rx.DataBits), nDBPS, ErrExtraBitLayout)
		m.fail(m.failLayout, "core.decode", "decode_fail.layout", err)
		return nil, err
	}
	x, err := plan.frame(len(rx.DataBits)/nDBPS, nil)
	if err != nil {
		m.fail(m.failLayout, "core.decode", "decode_fail.layout", err)
		return nil, err
	}
	payload, class, err := stripFramed(rx.DataBits, &x)
	switch class {
	case stripOK:
		m.decFrames.Inc()
		m.decPayload.Add(uint64(len(payload)))
	case stripLayout:
		m.fail(m.failLayout, "core.decode", "decode_fail.layout", err)
	case stripLength:
		m.fail(m.failLength, "core.decode", "decode_fail.length", err)
	case stripHeader:
		m.fail(m.failHeader, "core.decode", "decode_fail.header", err)
	}
	return payload, err
}

// stripFailure is the decode_fail class of a stripFramed error.
type stripFailure uint8

const (
	stripOK     stripFailure = iota
	stripLayout              // an extra-bit position beyond the frame
	stripLength              // too few bits for the header or the declared payload
	stripHeader              // an empty declared payload, or a non-binary bit
)

// stripFramed inverts the transmitter's framing in one pass: it walks the
// DATA bits, skips x's extra bits (ascending), drops SERVICE, reads the
// 16-bit length header and packs the payload bits straight into the
// returned slice, its only allocation. Every error wraps
// ErrExtraBitLayout.
//
//sledzig:noalloc budget=1
func stripFramed(dataBits []bits.Bit, x *frameExtras) ([]byte, stripFailure, error) {
	if x.last >= len(dataBits) {
		return nil, stripLayout, fmt.Errorf("core: layout position %d beyond frame: %w", x.last, ErrExtraBitLayout)
	}
	remain := len(dataBits) - x.count - serviceBits - 8*headerOctets // bits after the header
	if remain < 0 {
		return nil, stripLength, fmt.Errorf("core: stripped stream too short (%d bits): %w", len(dataBits)-x.count, ErrExtraBitLayout)
	}
	// next yields the following bit that is not an extra bit. The checks
	// bound the calls by len(dataBits) - x.count, which keeps every read
	// in range whatever x holds.
	i := 0
	extra, w := x.position(walk{})
	next := func() bits.Bit {
		for extra == i {
			i++
			extra, w = x.position(w)
		}
		i++
		return dataBits[i-1]
	}
	for range serviceBits {
		next()
	}
	length := 0
	for k := range 8 * headerOctets {
		b := next()
		if b > 1 {
			return nil, stripHeader, fmt.Errorf("core: header bit %d is %d: %w", k, b, ErrExtraBitLayout)
		}
		length |= int(b) << k
	}
	if length == 0 {
		return nil, stripHeader, fmt.Errorf("core: header declares empty payload: %w", ErrExtraBitLayout)
	}
	if 8*length > remain {
		return nil, stripLength, fmt.Errorf("core: header declares %d octets but only %d bits remain: %w", length, remain, ErrExtraBitLayout)
	}
	payload := make([]byte, length)
	for k := range 8 * length {
		b := next()
		if b > 1 {
			return nil, stripHeader, fmt.Errorf("core: payload bit %d is %d: %w", k, b, ErrExtraBitLayout)
		}
		payload[k/8] |= b << (k % 8)
	}
	return payload, stripOK, nil
}

// DetectChannel inspects received constellation points and reports which
// overlapped ZigBee channel, if any, is SledZig-protected: all its
// overlapped data subcarriers carry lowest-ring points in (nearly) every
// symbol. The 0.9 acceptance threshold tolerates occasional hard-decision
// errors on noisy points. The modulation comes from the PLCP header.
//
//sledzig:noalloc
func (d Decoder) DetectChannel(m wifi.Modulation, dataPoints [][]complex128) (ZigBeeChannel, bool) {
	// Phase-only modulations have a single amplitude ring: every point is
	// trivially "lowest ring", which would make detection fire on any BPSK
	// or QPSK frame. Those modes cannot carry SledZig pinning at all.
	if offsets, _ := d.Convention.SignificantOffsetsC(m); len(offsets) == 0 {
		return 0, false
	}
	best, bestFrac := ZigBeeChannel(0), 0.0
	for ch := CH1; ch <= CH4; ch++ {
		indices := ch.DataIndices()
		low, totalPts := 0, 0
		for _, pts := range dataPoints {
			for _, idx := range indices {
				if idx >= len(pts) {
					continue
				}
				totalPts++
				if isLowestRing(m, pts[idx]) {
					low++
				}
			}
		}
		if totalPts == 0 {
			continue
		}
		frac := float64(low) / float64(totalPts)
		if frac > bestFrac {
			best, bestFrac = ch, frac
		}
	}
	if bestFrac >= 0.9 {
		return best, true
	}
	return 0, false
}

// isLowestRing reports whether a (possibly noisy) point of modulation m is
// nearest the inner constellation ring on both axes: the inner/outer
// decision boundary lies at 2*K_mod.
func isLowestRing(m wifi.Modulation, p complex128) bool {
	k := wifi.NormFactor(m)
	return math.Abs(real(p)) < 2*k && math.Abs(imag(p)) < 2*k
}
