package zigbee

import (
	"fmt"
)

// PPDU framing constants (802.15.4-2015, 12.1).
const (
	// PreambleOctets of zeros precede the SFD; at two symbols per octet
	// this is the 8-symbol / 128 us preamble the paper's CCA analysis uses.
	PreambleOctets = 4
	// SFD is the start-of-frame delimiter.
	SFD = 0xA7
	// MaxPayload is the largest MPDU (including the 2-byte FCS).
	MaxPayload = 127
	// FCSLength is the CRC-16 trailer length.
	FCSLength = 2
)

// CRC16 computes the ITU-T CRC-16 used by the 802.15.4 FCS
// (x^16 + x^12 + x^5 + 1, initial value 0, LSB-first processing).
func CRC16(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		for i := 0; i < 8; i++ {
			bit := (b >> i) & 1
			fb := (crc & 1) ^ uint16(bit)
			crc >>= 1
			if fb == 1 {
				crc ^= 0x8408 // reversed 0x1021
			}
		}
	}
	return crc
}

// BuildPPDU assembles preamble + SFD + PHR(length) + payload + FCS as an
// octet stream ready for spreading. The payload excludes the FCS; length
// signalled in the PHR includes it.
func BuildPPDU(payload []byte) ([]byte, error) {
	mpdu := len(payload) + FCSLength
	if mpdu > MaxPayload {
		return nil, fmt.Errorf("zigbee: MPDU length %d exceeds %d octets", mpdu, MaxPayload)
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("zigbee: empty payload")
	}
	out := make([]byte, 0, PreambleOctets+2+mpdu)
	out = append(out, make([]byte, PreambleOctets)...)
	out = append(out, SFD)
	out = append(out, byte(mpdu))
	out = append(out, payload...)
	crc := CRC16(payload)
	out = append(out, byte(crc), byte(crc>>8))
	return out, nil
}

// ParsePPDU validates an octet stream produced by BuildPPDU (possibly with
// corrupted payload octets) and returns the payload. It checks preamble,
// SFD, PHR consistency and the FCS.
func ParsePPDU(octets []byte) ([]byte, error) {
	if len(octets) < PreambleOctets+2+1+FCSLength {
		return nil, fmt.Errorf("zigbee: PPDU too short (%d octets)", len(octets))
	}
	for i := 0; i < PreambleOctets; i++ {
		if octets[i] != 0 {
			return nil, fmt.Errorf("zigbee: preamble octet %d is %#x, want 0", i, octets[i])
		}
	}
	if octets[PreambleOctets] != SFD {
		return nil, fmt.Errorf("zigbee: SFD is %#x, want %#x", octets[PreambleOctets], SFD)
	}
	mpdu := int(octets[PreambleOctets+1] & 0x7F)
	if mpdu < 1+FCSLength {
		return nil, fmt.Errorf("zigbee: PHR declares %d octets, fewer than one payload octet plus the FCS", mpdu)
	}
	start := PreambleOctets + 2
	if len(octets) < start+mpdu {
		return nil, fmt.Errorf("zigbee: PHR declares %d octets but only %d remain", mpdu, len(octets)-start)
	}
	payload := octets[start : start+mpdu-FCSLength]
	gotCRC := uint16(octets[start+mpdu-2]) | uint16(octets[start+mpdu-1])<<8
	if CRC16(payload) != gotCRC {
		return nil, fmt.Errorf("zigbee: FCS mismatch")
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, nil
}

// FrameAirtime returns the on-air duration in seconds of a PPDU carrying
// payloadLen octets (plus FCS, PHR, SFD, preamble) at 250 kbit/s.
func FrameAirtime(payloadLen int) float64 {
	octets := PreambleOctets + 2 + payloadLen + FCSLength
	return float64(octets) * 2 * SymbolDuration
}

// MAC timing constants for the ACK exchange (2.4 GHz O-QPSK).
const (
	// TurnaroundTime is aTurnaroundTime: 12 symbols = 192 us.
	TurnaroundTime = 12 * SymbolDuration
	// AckWaitDuration bounds how long a transmitter waits for the ACK.
	AckWaitDuration = 54 * SymbolDuration
	// AckAirtime is the on-air duration of the 5-octet ACK PPDU
	// (preamble + SFD + PHR + 3-octet MPDU + FCS).
	AckAirtime = float64(PreambleOctets+2+3+FCSLength) * 2 * SymbolDuration
)
