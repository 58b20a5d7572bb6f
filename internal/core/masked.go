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
// internal/ctc and the codec backends build on these helpers instead of
// duplicating the layout/scramble/solve pipeline.

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
	key := maskKey(mask)
	if v, ok := plan.maskedLayouts.Load(key); ok {
		metrics().layoutHit.Inc()
		return v.(*FrameLayout), nil
	}
	metrics().layoutMiss.Inc()
	layout, err := computeMaskedLayout(plan, mask)
	if err != nil {
		return nil, err
	}
	v, _ := plan.maskedLayouts.LoadOrStore(key, layout)
	return v.(*FrameLayout), nil
}

// maskKey packs a symbol mask into a compact map key.
func maskKey(mask []bool) string {
	b := make([]byte, 4+(len(mask)+7)/8)
	b[0] = byte(len(mask))
	b[1] = byte(len(mask) >> 8)
	b[2] = byte(len(mask) >> 16)
	b[3] = byte(len(mask) >> 24)
	for i, pinned := range mask {
		if pinned {
			b[4+i/8] |= 1 << (i % 8)
		}
	}
	return string(b)
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
	nDBPS := plan.Mode.DataBitsPerSymbol()
	total := nSym * nDBPS

	capacity := total - len(layout.Positions) - serviceBits - tailBits
	if need := 8 * (headerOctets + len(payload)); need > capacity || len(payload) == 0 {
		return nil, nil, fmt.Errorf("core: payload of %d octets outside the %d-bit capacity of a %d-symbol masked frame: %w",
			len(payload), capacity, nSym, ErrPayloadSize)
	}

	// Logical stream: SERVICE zeros, length header, payload, zero pad.
	logical := make([]bits.Bit, total-len(layout.Positions))
	n := serviceBits
	header := [headerOctets]byte{byte(len(payload)), byte(len(payload) >> 8)}
	n += bits.CopyBytes(logical[n:], header[:])
	bits.CopyBytes(logical[n:], payload)

	// Physical unscrambled stream: logical bits at non-extra positions.
	extra := make([]bool, total)
	for _, p := range layout.Positions {
		if p < 0 || p >= total {
			return nil, nil, fmt.Errorf("core: extra position %d outside frame of %d bits: %w", p, total, ErrExtraBitLayout)
		}
		extra[p] = true
	}
	u := make([]bits.Bit, total)
	li := 0
	for i := range u {
		if !extra[i] {
			u[i] = logical[li]
			li++
		}
	}
	if seed == 0 {
		seed = wifi.DefaultScramblerSeed
	}
	x, err := wifi.ScrambleWithSeed(u, seed)
	if err != nil {
		return nil, nil, err
	}
	// Zero the placeholders (scrambling flipped some to the scrambler
	// sequence; the solver assumes unknowns start at zero), then solve.
	for _, p := range layout.Positions {
		x[p] = 0
	}
	if err := SolveExtraBits(x, layout.Clusters); err != nil {
		return nil, nil, err
	}
	tx := wifi.Transmitter{Mode: plan.Mode, Seed: seed, Convention: plan.Convention}
	frame, err := tx.FrameFromScrambled(x, (total-serviceBits-tailBits)/8)
	if err != nil {
		return nil, nil, err
	}
	return frame, layout, nil
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
	payload, _, err := stripFramed(dataBits, layout.Positions)
	return payload, err
}
