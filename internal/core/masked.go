package core

import (
	"fmt"

	"sledzig/internal/bits"
	"sledzig/internal/wifi"
)

// Masked-frame assembly: the single source of truth for building and
// stripping frames whose pinning constraints apply only to a subset of
// OFDM symbols. The per-symbol mask generalizes the all-symbols SledZig
// frame (Encoder pins every symbol) to the energy-modulation codecs,
// whose frames alternate pinned ("low") and unpinned ("high") symbols.
// The codec backends build on these helpers instead of duplicating the
// layout/scramble/solve pipeline.

// MaskedLayout builds the extra-bit layout for a frame of len(mask) OFDM
// symbols where only the symbols marked true carry the plan's per-symbol
// constraints. An all-true mask reproduces Plan.FrameLayout's geometry (and
// shares its memoized instance). Layouts are memoized per (plan, mask) —
// the CTC codecs re-derive the same handful of masks for every frame of a
// message alphabet, so steady-state encoding skips cluster planning
// entirely. The returned layout is shared and read-only.
func MaskedLayout(plan *Plan, mask []bool) (*FrameLayout, error) {
	if plan == nil {
		return nil, fmt.Errorf("core: masked layout needs a plan")
	}
	if len(mask) == 0 {
		return nil, fmt.Errorf("core: masked layout needs at least one symbol")
	}
	allTrue := true
	for _, pinned := range mask {
		if !pinned {
			allTrue = false
			break
		}
	}
	if allTrue {
		// Identical constraint expansion; FrameLayout's own cache (keyed by
		// the cheaper int) holds the shared instance.
		return plan.FrameLayout(len(mask))
	}
	// Masks up to 480 symbols pack into the stack buffer; the hit lookup
	// converts the key without copying it.
	var buf [64]byte
	key := appendMaskKey(buf[:0], mask)
	plan.mu.RLock()
	layout, ok := plan.maskedLayouts[string(key)]
	plan.mu.RUnlock()
	if ok {
		metrics().layoutHit.Inc()
		return layout, nil
	}
	metrics().layoutMiss.Inc()
	layout, err := computeMaskedLayout(plan, mask)
	if err != nil {
		return nil, err
	}
	return storeLayout(&plan.mu, &plan.maskedLayouts, string(key), layout), nil
}

// appendMaskKey packs a symbol mask onto dst as a compact map key: the
// mask length (4 bytes, little-endian), then one bit per symbol.
func appendMaskKey(dst []byte, mask []bool) []byte {
	n := len(mask)
	dst = append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	for i := 0; i < n; i += 8 {
		var b byte
		for j, pinned := range mask[i:min(i+8, n)] {
			if pinned {
				b |= 1 << j
			}
		}
		dst = append(dst, b)
	}
	return dst
}

// computeMaskedLayout derives a masked layout from scratch.
func computeMaskedLayout(plan *Plan, mask []bool) (*FrameLayout, error) {
	nDBPS := plan.Mode.DataBitsPerSymbol()
	perSym := plan.symbolConstraints
	var all []Constraint
	for s, pinned := range mask {
		if !pinned {
			continue
		}
		for _, c := range perSym {
			all = append(all, Constraint{
				MotherIndex: c.MotherIndex + s*2*nDBPS,
				Value:       c.Value,
			})
		}
	}
	return LayoutForGlobalConstraints(all, len(mask))
}

// AssembleMaskedFrame builds a standard-format wifi.Frame of len(mask)
// OFDM symbols carrying payload under the SledZig length-header framing
// (SERVICE, uint16 length, payload, zero pad), with the plan's pinning
// constraints satisfied on every masked symbol. It returns the frame and
// the layout that was solved, so receivers with out-of-band mask knowledge
// can account for the extra bits. seed 0 selects the 802.11 default.
func AssembleMaskedFrame(plan *Plan, mask []bool, payload []byte, seed uint8) (*wifi.Frame, *FrameLayout, error) {
	layout, err := MaskedLayout(plan, mask)
	if err != nil {
		return nil, nil, err
	}
	nSym := len(mask)
	capacity := nSym*plan.Mode.DataBitsPerSymbol() - len(layout.Positions) - serviceBits - tailBits
	if need := 8 * (headerOctets + len(payload)); need > capacity || len(payload) == 0 {
		return nil, nil, fmt.Errorf("core: payload of %d octets outside the %d-bit capacity of a %d-symbol masked frame: %w",
			len(payload), capacity, nSym, ErrPayloadSize)
	}
	res := EncodeResult{Frame: new(wifi.Frame)}
	if err := assemble(plan, layout, payload, seed, nil, &res); err != nil {
		return nil, nil, err
	}
	return res.Frame, layout, nil
}

// StripMaskedPayload inverts AssembleMaskedFrame at the receiver: given
// the demodulated DATA bits and the per-symbol pinning mask, it rebuilds
// the transmitter's layout, removes the extra bits, and parses the
// length-header framing back to the payload.
func StripMaskedPayload(plan *Plan, mask []bool, dataBits []bits.Bit) ([]byte, error) {
	layout, err := MaskedLayout(plan, mask)
	if err != nil {
		return nil, err
	}
	return StripPayload(dataBits, layout)
}

// StripPayload inverts the assembly at the receiver for any frame format:
// it removes layout's extra bits from the descrambled DATA bits and
// parses the length-header framing back to the payload. Every error wraps
// ErrExtraBitLayout.
func StripPayload(dataBits []bits.Bit, layout *FrameLayout) ([]byte, error) {
	payload, _, err := stripFramed(dataBits, layout.Positions)
	return payload, err
}
