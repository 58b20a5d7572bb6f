package zigbee

import (
	"fmt"
)

// Transmitter renders payloads to baseband waveforms.
type Transmitter struct {
	// SamplesPerChip of the output waveform (default 10 -> 20 MS/s).
	SamplesPerChip int
}

func (t Transmitter) samplesPerChip() int {
	if t.SamplesPerChip == 0 {
		return 10
	}
	return t.SamplesPerChip
}

// Transmit builds the PPDU for payload and returns its baseband waveform
// with unit average power.
func (t Transmitter) Transmit(payload []byte) ([]complex128, error) {
	ppdu, err := BuildPPDU(payload)
	if err != nil {
		return nil, err
	}
	chips := Spread(ppdu)
	mod := Modulator{SamplesPerChip: t.samplesPerChip()}
	return mod.Modulate(chips)
}

// Receiver demodulates, despreads and validates a PPDU waveform.
type Receiver struct {
	SamplesPerChip int
}

func (r Receiver) samplesPerChip() int {
	if r.SamplesPerChip == 0 {
		return 10
	}
	return r.SamplesPerChip
}

// RxStats carries reception quality indicators alongside the payload.
type RxStats struct {
	// MinChipAgreement is the worst per-symbol correlation (out of 32);
	// low values mean the link was close to failure.
	MinChipAgreement int
	// ChipErrors counts hard chip decisions differing from the best-match
	// sequences.
	ChipErrors int
}

// Receive recovers the payload from a waveform that begins at the first
// preamble sample (synchronization is the simulator's job). payloadLen is
// unknown to a real receiver until the PHR arrives; Receive discovers it
// the same way, reading the PHR after despreading the header.
func (r Receiver) Receive(wave []complex128) ([]byte, *RxStats, error) {
	spc := r.samplesPerChip()
	demod := Demodulator{SamplesPerChip: spc}

	headerOctets := PreambleOctets + 2 // preamble + SFD + PHR
	headerChips := headerOctets * 2 * ChipsPerSymbol
	if (headerChips+1)*spc > len(wave) {
		return nil, nil, fmt.Errorf("zigbee: waveform too short for PPDU header")
	}
	chips, _, err := demod.Demodulate(wave, headerChips)
	if err != nil {
		return nil, nil, err
	}
	header, minAgree, err := Despread(chips)
	if err != nil {
		return nil, nil, err
	}
	mpdu := int(header[headerOctets-1] & 0x7F)
	totalOctets := headerOctets + mpdu
	totalChips := totalOctets * 2 * ChipsPerSymbol
	if (totalChips+1)*spc > len(wave) {
		return nil, nil, fmt.Errorf("zigbee: waveform truncated: PHR declares %d octets", mpdu)
	}
	chips, _, err = demod.Demodulate(wave, totalChips)
	if err != nil {
		return nil, nil, err
	}
	octets, ma, err := Despread(chips)
	if err != nil {
		return nil, nil, err
	}
	if ma < minAgree {
		minAgree = ma
	}
	payload, err := ParsePPDU(octets)
	if err != nil {
		return nil, nil, err
	}
	// Chip errors relative to the ideal spreading of the decoded octets.
	ideal := Spread(octets)
	errs := 0
	for i := range ideal {
		if ideal[i] != chips[i]&1 {
			errs++
		}
	}
	return payload, &RxStats{MinChipAgreement: minAgree, ChipErrors: errs}, nil
}
