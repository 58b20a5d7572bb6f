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
// A masked frame gets no layout of its own: a pinned symbol's clusters
// and extra bits are the same fixed range of the plan's layout as in an
// unmasked frame of len(mask) symbols, so assembly and strip walk the
// ranges of the pinned symbols. The codec backends build on these
// helpers instead of duplicating the layout/scramble/solve pipeline.

// maskedFrame locates the extra bits of the frame of len(mask) symbols
// that mask pins in the plan's layout, growing it to len(mask) symbols
// when it is shorter. It allocates nothing on a covered length.
func maskedFrame(plan *Plan, mask []bool) (frameExtras, error) {
	if plan == nil {
		return frameExtras{}, fmt.Errorf("core: masked frame needs a plan")
	}
	n := len(mask)
	l, err := plan.grown(n)
	if err != nil {
		return frameExtras{}, err
	}
	c, e := n*len(plan.body), n*len(plan.symbolConstraints)
	return newFrameExtras(l.clusters[:c:c], l.positions[:e:e], n, mask), nil
}

// AssembleMaskedFrame builds a standard-format wifi.Frame of len(mask)
// OFDM symbols carrying payload under the SledZig length-header framing
// (SERVICE, uint16 length, payload, zero pad), with the plan's pinning
// constraints satisfied on every masked symbol. seed 0 selects the
// 802.11 default.
func AssembleMaskedFrame(plan *Plan, mask []bool, payload []byte, seed uint8) (*wifi.Frame, error) {
	x, err := maskedFrame(plan, mask)
	if err != nil {
		return nil, err
	}
	nSym := len(mask)
	capacity := nSym*plan.Mode.DataBitsPerSymbol() - x.count - serviceBits - tailBits
	if need := 8 * (headerOctets + len(payload)); need > capacity || len(payload) == 0 {
		return nil, fmt.Errorf("core: payload of %d octets outside the %d-bit capacity of a %d-symbol masked frame: %w",
			len(payload), capacity, nSym, ErrPayloadSize)
	}
	res := EncodeResult{Frame: new(wifi.Frame)}
	if err := assemble(plan, nSym, &x, payload, seed, nil, &res); err != nil {
		return nil, err
	}
	return res.Frame, nil
}

// StripMaskedPayload inverts AssembleMaskedFrame at the receiver: given
// the demodulated DATA bits and the per-symbol pinning mask, it removes
// the extra bits of the pinned symbols and parses the length-header
// framing back to the payload.
func StripMaskedPayload(plan *Plan, mask []bool, dataBits []bits.Bit) ([]byte, error) {
	x, err := maskedFrame(plan, mask)
	if err != nil {
		return nil, err
	}
	payload, _, err := stripFramed(dataBits, &x)
	return payload, err
}

// StripPayload inverts the assembly at the receiver for any frame format:
// it removes layout's extra bits from the descrambled DATA bits and
// parses the length-header framing back to the payload. Every error wraps
// ErrExtraBitLayout.
func StripPayload(dataBits []bits.Bit, layout *FrameLayout) ([]byte, error) {
	x := newFrameExtras(layout.Clusters, layout.Positions, 1, nil)
	payload, _, err := stripFramed(dataBits, &x)
	return payload, err
}
