package codec

import (
	"fmt"

	"sledzig/internal/dsp"
	"sledzig/internal/wifi"
)

// MeasureBandDrop encodes payload with c and reports the power drop (dB)
// inside the protected ZigBee channel over the codec's protected DATA
// symbols, relative to a standard 802.11 frame of the same mode carrying
// the same payload. This is the measurement behind Contract.MinDropDB:
// the conformance suite holds every backend to its own claim with it, and
// the experiment harness reports it per backend side by side.
func MeasureBandDrop(c Codec, p Params, payload []byte) (float64, error) {
	enc, err := c.Encode(payload)
	if err != nil {
		return 0, err
	}
	lo, hi := p.Channel.BandHz()

	// The DATA symbols occupy the final NumSymbols*SymbolLength samples of
	// every backend's waveform (what precedes them — preamble, SIGNAL —
	// differs per codec and is excluded from the contract).
	nSym, mask := enc.NumSymbols(), enc.ProtectedMask()
	span := nSym * wifi.SymbolLength
	if span <= 0 || span > len(enc.Waveform) {
		return 0, fmt.Errorf("codec: %s frame of %d samples cannot hold %d DATA symbols", c.Name(), len(enc.Waveform), nSym)
	}
	// The contract is measured at both sample widths: the wide complex128
	// waveform as encoded, and the same waveform rounded to complex64 the
	// way the default receive path sees it. The reported drop is the worse
	// (smaller) of the two, so a codec cannot pass conformance on
	// complex128 precision alone while the narrow path hears more energy
	// in the protected band.
	data := enc.Waveform[len(enc.Waveform)-span:]
	data32 := dsp.Narrow(nil, data)
	var sum, sum32 float64
	n := 0
	for s := range nSym {
		if mask != nil && !mask[s] {
			continue
		}
		pwr, perr := dsp.BandPower(data[s*wifi.SymbolLength:(s+1)*wifi.SymbolLength], wifi.SampleRate, lo, hi)
		if perr != nil {
			return 0, perr
		}
		pwr32, perr := dsp.BandPower32(data32[s*wifi.SymbolLength:(s+1)*wifi.SymbolLength], wifi.SampleRate, lo, hi)
		if perr != nil {
			return 0, perr
		}
		sum += pwr
		sum32 += pwr32
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("codec: %s marked no protected symbols", c.Name())
	}
	protected := sum / float64(n)
	protected32 := sum32 / float64(n)

	// Baseline: the same payload through an unmodified transmitter.
	mode := p.Mode
	if mode.Modulation == 0 {
		mode = wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}
	}
	basePayload := payload
	if len(basePayload) == 0 {
		basePayload = []byte{0}
	}
	frame, err := wifi.Transmitter{Mode: mode, Convention: p.Convention, Seed: p.Seed}.Frame(basePayload)
	if err != nil {
		return 0, err
	}
	baseWave, err := frame.DataWaveform()
	if err != nil {
		return 0, err
	}
	var bsum float64
	bn := 0
	for s := 0; s+wifi.SymbolLength <= len(baseWave); s += wifi.SymbolLength {
		pwr, perr := dsp.BandPower(baseWave[s:s+wifi.SymbolLength], wifi.SampleRate, lo, hi)
		if perr != nil {
			return 0, perr
		}
		bsum += pwr
		bn++
	}
	if bn == 0 {
		return 0, fmt.Errorf("codec: baseline frame has no DATA symbols")
	}
	baseline := bsum / float64(bn)
	drop := dsp.DB(baseline) - dsp.DB(protected)
	if d32 := dsp.DB(baseline) - dsp.DB(protected32); d32 < drop {
		drop = d32
	}
	return drop, nil
}
