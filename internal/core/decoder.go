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

// Decode recovers the payload from a received frame, given the protected
// channel (use DetectChannel first when it is unknown). Plans come from the
// process-wide cache, so repeated frames of one mode share a single plan
// and its memoized frame layouts.
func (d Decoder) Decode(rx *wifi.RxResult, ch ZigBeeChannel) ([]byte, error) {
	plan, err := CachedPlan(d.Convention, rx.Mode, ch)
	if err != nil {
		return nil, err
	}
	return d.decodeWithPlan(rx, plan)
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
	if err != nil {
		return nil, ch, err
	}
	return payload, ch, nil
}

func (d Decoder) decodeWithPlan(rx *wifi.RxResult, plan *Plan) (payload []byte, err error) {
	m := metrics()
	mk := d.Trace.Begin(m.decStrip)
	defer func() { mk.End(len(payload), err) }()
	nDBPS := plan.Mode.DataBitsPerSymbol()
	if len(rx.DataBits)%nDBPS != 0 {
		err := fmt.Errorf("core: DATA field of %d bits is not whole symbols of %d: %w", len(rx.DataBits), nDBPS, ErrExtraBitLayout)
		m.fail(m.failLayout, "core.decode", "decode_fail.layout", err)
		return nil, err
	}
	nSym := len(rx.DataBits) / nDBPS
	layout, err := plan.FrameLayout(nSym)
	if err != nil {
		m.fail(m.failLayout, "core.decode", "decode_fail.layout", err)
		return nil, err
	}
	extra := make([]bool, len(rx.DataBits))
	for _, p := range layout.Positions {
		if p >= len(extra) {
			err := fmt.Errorf("core: layout position %d beyond frame: %w", p, ErrExtraBitLayout)
			m.fail(m.failLayout, "core.decode", "decode_fail.layout", err)
			return nil, err
		}
		extra[p] = true
	}
	logical := make([]bits.Bit, 0, len(rx.DataBits)-len(layout.Positions))
	for i, b := range rx.DataBits {
		if !extra[i] {
			logical = append(logical, b)
		}
	}
	if len(logical) < serviceBits+8*headerOctets {
		err := fmt.Errorf("core: stripped stream too short (%d bits): %w", len(logical), ErrExtraBitLayout)
		m.fail(m.failLength, "core.decode", "decode_fail.length", err)
		return nil, err
	}
	body := logical[serviceBits:]
	headerBytes, err := bits.ToBytes(body[:8*headerOctets])
	if err != nil {
		m.fail(m.failHeader, "core.decode", "decode_fail.header", err)
		return nil, err
	}
	length := int(headerBytes[0]) | int(headerBytes[1])<<8
	if length == 0 {
		err := fmt.Errorf("core: header declares empty payload: %w", ErrExtraBitLayout)
		m.fail(m.failHeader, "core.decode", "decode_fail.header", err)
		return nil, err
	}
	need := 8 * (headerOctets + length)
	if len(body) < need {
		err := fmt.Errorf("core: header declares %d octets but only %d bits remain: %w", length, len(body)-8*headerOctets, ErrExtraBitLayout)
		m.fail(m.failLength, "core.decode", "decode_fail.length", err)
		return nil, err
	}
	payload, err = bits.ToBytes(body[8*headerOctets : need])
	if err != nil {
		m.fail(m.failHeader, "core.decode", "decode_fail.header", err)
		return nil, err
	}
	m.decFrames.Inc()
	m.decPayload.Add(uint64(len(payload)))
	return payload, nil
}

// DetectChannel inspects received constellation points and reports which
// overlapped ZigBee channel, if any, is SledZig-protected: all its
// overlapped data subcarriers carry lowest-ring points in (nearly) every
// symbol. The 0.9 acceptance threshold tolerates occasional hard-decision
// errors on noisy points. The modulation comes from the PLCP header.
func (d Decoder) DetectChannel(m wifi.Modulation, dataPoints [][]complex128) (ZigBeeChannel, bool) {
	if len(dataPoints) == 0 {
		return 0, false
	}
	// Phase-only modulations have a single amplitude ring: every point is
	// trivially "lowest ring", which would make detection fire on any BPSK
	// or QPSK frame. Those modes cannot carry SledZig pinning at all.
	if offsets, _ := d.Convention.SignificantOffsetsC(m); len(offsets) == 0 {
		return 0, false
	}
	dataIndex := make(map[int]int, wifi.NumDataSubcarriers)
	for i, k := range wifi.DataSubcarriers() {
		dataIndex[k] = i
	}
	best, bestFrac := ZigBeeChannel(0), 0.0
	for _, ch := range AllChannels() {
		subs := ch.DataSubcarriers()
		low, totalPts := 0, 0
		for _, pts := range dataPoints {
			for _, k := range subs {
				idx := dataIndex[k]
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
