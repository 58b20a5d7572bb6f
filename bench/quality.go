package main

import (
	"bytes"
	"fmt"
	"math"

	"sledzig"
	"sledzig/internal/codec"
	"sledzig/internal/wifi"
)

// checkEvery is the stride of the timed ops whose waveform is hashed and
// compared with the check pass.
const checkEvery = 50

// hashWave is FNV-1a over the samples' 64-bit patterns: equal hashes mean
// byte-identical waveforms for the checks' purposes, without keeping the
// waveforms themselves.
func hashWave(w []complex128) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range w {
		h = (h ^ math.Float64bits(real(c))) * 1099511628211
		h = (h ^ math.Float64bits(imag(c))) * 1099511628211
	}
	return h
}

// dropClass is one (codec, mode slot) pair's backend and the band drops
// measured with it.
type dropClass struct {
	backend codec.Codec
	params  codec.Params
	drops   []float64
}

// dropMeter measures band drops with codec.MeasureBandDrop, the
// measurement behind every backend's Contract.MinDropDB, per (codec, mode
// slot). The backend re-encodes the payload with the facade's parameters;
// encoding is deterministic, so it measures the waveform the workload
// sends (the traced run checks the codec layer's waveforms against the
// facade's byte for byte).
type dropMeter struct {
	classes map[[2]int]*dropClass
	all     []float64 // every drop in measurement order, so the mean repeats bit for bit
}

func newDropMeter() *dropMeter { return &dropMeter{classes: map[[2]int]*dropClass{}} }

// measure records the band drop of payload sent by codecs[c] in mode slot
// slot.
func (dm *dropMeter) measure(c, slot int, payload []byte) error {
	k := [2]int{c, slot}
	cl := dm.classes[k]
	if cl == nil {
		m := codecMode(c, slot)
		p := codec.Params{Mode: wifi.Mode{Modulation: m.mod, CodeRate: m.rate}, Channel: m.ch, Seed: txSeed}
		b, err := codec.New(codecs[c], p)
		if err != nil {
			return err
		}
		cl = &dropClass{backend: b, params: p}
		dm.classes[k] = cl
	}
	d, err := codec.MeasureBandDrop(cl.backend, cl.params, payload)
	if err != nil {
		return err
	}
	cl.drops = append(cl.drops, d)
	dm.all = append(dm.all, d)
	return nil
}

// mean is the mean drop over every frame measured.
func (dm *dropMeter) mean() float64 { return mean(dm.all) }

// check reports every class whose mean drop misses its contract. The
// contract is checked on each class mean: a frame of a few DATA symbols,
// and its standard baseline, hold too few in-band constellation points for
// a per-frame power comparison to mean anything (over ten seeds' tx-mix
// pools, one QAM-64 frame measured 2.48 dB against the 3 dB contract,
// while its class averages above 6 dB).
func (dm *dropMeter) check(rep *report) {
	for c := range codecs {
		for slot := range modes {
			cl := dm.classes[[2]int{c, slot}]
			if cl == nil {
				continue
			}
			if d, floor := mean(cl.drops), cl.backend.Contract().MinDropDB; d < floor {
				rep.fail("%s at %v mean band drop %.2f dB below the %.1f dB contract", codecs[c], codecMode(c, slot), d, floor)
			}
		}
	}
}

// frameEVM is the RMS error-vector magnitude over all DATA symbols of a
// decoded frame (linear, relative to unit constellation power).
func frameEVM(symbolEVM []float64) float64 {
	var s float64
	for _, e := range symbolEVM {
		s += e * e
	}
	return math.Sqrt(s / float64(max(len(symbolEVM), 1)))
}

// evmDB converts a mean linear EVM to dB.
func evmDB(linear float64) float64 { return 20 * math.Log10(linear) }

// checkPayload reports a decoded payload that differs from the one sent.
func checkPayload(got *sledzig.DecodeResult, want []byte) error {
	if !bytes.Equal(got.Payload, want) {
		return fmt.Errorf("decoded %d octets differ from the %d sent", len(got.Payload), len(want))
	}
	return nil
}
