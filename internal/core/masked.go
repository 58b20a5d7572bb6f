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
// A masked frame walks the plan's tile as an unmasked frame of
// len(mask) symbols does, skipping the symbols mask leaves unpinned, so
// it neither needs a layout of its own nor grows the plan. The codec
// backends build on these helpers instead of duplicating the
// layout/scramble/solve pipeline.

// AssembleMaskedFrame builds a standard-format wifi.Frame of len(mask)
// OFDM symbols carrying payload under the SledZig length-header framing
// (SERVICE, uint16 length, payload, zero pad), with the plan's pinning
// constraints satisfied on every masked symbol. seed 0 selects the
// 802.11 default.
func AssembleMaskedFrame(plan *Plan, mask []bool, payload []byte, seed uint8) (*wifi.Frame, error) {
	x, err := plan.frame(len(mask), mask)
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
// framing back to the payload, its one allocation.
//
//sledzig:noalloc budget=1
func StripMaskedPayload(plan *Plan, mask []bool, dataBits []bits.Bit) ([]byte, error) {
	x, err := plan.frame(len(mask), mask)
	if err != nil {
		return nil, err
	}
	payload, _, err := stripFramed(dataBits, &x)
	return payload, err
}

// StripPayload inverts AssembleBits at the receiver for another frame
// format: it removes the extra bits of nSym symbols of t from the
// descrambled DATA bits and parses the length-header framing back to the
// payload. Every error wraps ErrExtraBitLayout.
func StripPayload(dataBits []bits.Bit, t *Tile, nSym int) ([]byte, error) {
	x := t.frame(nSym, nil)
	payload, _, err := stripFramed(dataBits, &x)
	return payload, err
}
