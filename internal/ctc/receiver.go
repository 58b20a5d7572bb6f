package ctc

import (
	"fmt"

	"sledzig/internal/bits"
	"sledzig/internal/core"
	"sledzig/internal/dsp"
	"sledzig/internal/wifi"
)

// RSSIDecoder is the ZigBee-side receiver: it knows nothing about 802.11
// and recovers the message purely from band-power samples — exactly what
// a CC2420's RSSI register provides.
type RSSIDecoder struct {
	// Channel the device listens on.
	Channel core.ZigBeeChannel
	// SampleRate of the capture (default 20 MS/s, WiFi-centered).
	SampleRate float64
}

// DecodeRSSI reads the OOK message from a capture of the WiFi DATA field
// (aligned to its first sample). numBits is known from the CTC framing
// convention in use; each bit spans SymbolsPerBit OFDM symbols.
func (d RSSIDecoder) DecodeRSSI(capture []complex128, numBits int) ([]bits.Bit, error) {
	if numBits <= 0 {
		return nil, fmt.Errorf("ctc: numBits must be positive")
	}
	sr := d.SampleRate
	if sr == 0 {
		sr = wifi.SampleRate
	}
	window := SymbolsPerBit * wifi.SymbolLength
	if len(capture) < numBits*window {
		return nil, fmt.Errorf("ctc: capture of %d samples shorter than %d bits x %d samples",
			len(capture), numBits, window)
	}
	lo, hi := d.Channel.BandHz()
	levels := make([]float64, numBits)
	minL, maxL := 0.0, 0.0
	for i := 0; i < numBits; i++ {
		seg := capture[i*window : (i+1)*window]
		p, err := dsp.BandPower(seg, sr, lo, hi)
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
		return nil, fmt.Errorf("ctc: no OOK contrast in the capture (%.1f dB span)", maxL-minL)
	}
	threshold := (minL + maxL) / 2
	out := make([]bits.Bit, numBits)
	for i, l := range levels {
		if l > threshold {
			out[i] = 1
		}
	}
	return out, nil
}

// Decoder is the WiFi-side receiver: it recovers both the ordinary WiFi
// payload and the CTC message from a received frame, reconstructing the
// per-symbol pinning mask from the constellation itself.
type Decoder struct {
	Convention wifi.Convention
	Channel    core.ZigBeeChannel
}

// RecoverMessage reconstructs the OOK message and the regularized
// per-symbol pinning mask from received constellation points: a symbol is
// "low" when every overlapped data subcarrier sits on the lowest ring,
// and each SymbolsPerBit group majority-votes into one bit.
func (d Decoder) RecoverMessage(rx *wifi.RxResult) ([]bits.Bit, []bool, error) {
	if !d.Channel.Valid() {
		return nil, nil, fmt.Errorf("ctc: invalid channel %d", int(d.Channel))
	}
	nSym := len(rx.DataPoints)
	if nSym == 0 || nSym%SymbolsPerBit != 0 {
		return nil, nil, fmt.Errorf("ctc: frame of %d symbols is not whole CTC bits", nSym)
	}
	kmod := wifi.NormFactor(rx.Mode.Modulation)
	mask := make([]bool, nSym)
	for s, pts := range rx.DataPoints {
		low := true
		for _, idx := range d.Channel.DataIndices() {
			p := pts[idx]
			if real(p) > 2*kmod || real(p) < -2*kmod || imag(p) > 2*kmod || imag(p) < -2*kmod {
				low = false
				break
			}
		}
		mask[s] = low
	}
	// Majority-vote the mask into CTC bits (low = 0), then regularize the
	// mask to the decided values so the layout matches the transmitter's.
	message := make([]bits.Bit, nSym/SymbolsPerBit)
	for i := range message {
		lows := 0
		for s := 0; s < SymbolsPerBit; s++ {
			if mask[i*SymbolsPerBit+s] {
				lows++
			}
		}
		if lows <= SymbolsPerBit/2 {
			message[i] = 1
		}
		for s := 0; s < SymbolsPerBit; s++ {
			mask[i*SymbolsPerBit+s] = message[i] == 0
		}
	}
	return message, mask, nil
}

// Decode extracts (payload, message) from a standard receive result.
func (d Decoder) Decode(rx *wifi.RxResult) ([]byte, []bits.Bit, error) {
	message, mask, err := d.RecoverMessage(rx)
	if err != nil {
		return nil, nil, err
	}
	plan, err := core.CachedPlan(d.Convention, rx.Mode, d.Channel)
	if err != nil {
		return nil, nil, err
	}
	payload, err := core.StripMaskedPayload(plan, mask, rx.DataBits)
	if err != nil {
		return nil, nil, fmt.Errorf("ctc: %w", err)
	}
	return payload, message, nil
}
