// Package zigbee implements the IEEE 802.15.4 2.4 GHz PHY used by the
// TelosB/CC2420 nodes in the SledZig paper: DSSS spreading of 4-bit symbols
// onto 32-chip pseudo-noise sequences, half-sine OQPSK modulation at
// 2 Mchip/s, PPDU framing with preamble/SFD/CRC, and a correlation
// receiver. Its DSSS redundancy is what lets ZigBee tolerate the residual
// narrowband (pilot) interference SledZig leaves in the channel.
package zigbee

import (
	"fmt"
	mbits "math/bits"

	"sledzig/internal/bits"
)

// PHY constants of the 2.4 GHz O-QPSK PHY (802.15.4-2015, section 12).
const (
	// ChipRate is 2 Mchip/s.
	ChipRate = 2e6
	// ChipsPerSymbol spreads each 4-bit symbol to 32 chips.
	ChipsPerSymbol = 32
	// BitsPerSymbol is the dibit group size (one hex digit).
	BitsPerSymbol = 4
	// SymbolDuration is 16 us (32 chips at 2 Mchip/s).
	SymbolDuration = ChipsPerSymbol / ChipRate
	// BitRate is the 250 kbit/s PHY data rate.
	BitRate = 250e3
	// Bandwidth is the occupied channel bandwidth in Hz.
	Bandwidth = 2e6
	// ChannelSpacing between adjacent 2.4 GHz channels in Hz.
	ChannelSpacing = 5e6
)

// chipSeq0 is the 32-chip PN sequence of data symbol 0
// (802.15.4-2015 Table 12-1), c0 first.
var chipSeq0 = [ChipsPerSymbol]bits.Bit{
	1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
	0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0,
}

// chipTable holds the 16 sequences: symbols 1..7 are right cyclic shifts of
// symbol 0 by 4 chips each; symbols 8..15 invert the odd-indexed chips
// (conjugation) of symbols 0..7.
var chipTable = buildChipTable()

func buildChipTable() [16][ChipsPerSymbol]bits.Bit {
	var t [16][ChipsPerSymbol]bits.Bit
	t[0] = chipSeq0
	for s := 1; s < 8; s++ {
		for i := 0; i < ChipsPerSymbol; i++ {
			t[s][i] = t[s-1][(i+ChipsPerSymbol-4)%ChipsPerSymbol]
		}
	}
	for s := 8; s < 16; s++ {
		for i := 0; i < ChipsPerSymbol; i++ {
			c := t[s-8][i]
			if i%2 == 1 {
				c ^= 1
			}
			t[s][i] = c
		}
	}
	return t
}

// ChipSequence returns a copy of the 32-chip sequence for symbol s (0..15).
func ChipSequence(s int) ([]bits.Bit, error) {
	if s < 0 || s > 15 {
		return nil, fmt.Errorf("zigbee: symbol %d out of range [0, 15]", s)
	}
	out := make([]bits.Bit, ChipsPerSymbol)
	copy(out, chipTable[s][:])
	return out, nil
}

// Spread maps a byte stream to its chip stream: each octet contributes two
// symbols, low nibble first (802.15.4 bit ordering).
func Spread(data []byte) []bits.Bit {
	out := make([]bits.Bit, 0, len(data)*2*ChipsPerSymbol)
	for _, b := range data {
		out = append(out, chipTable[b&0x0F][:]...)
		out = append(out, chipTable[b>>4][:]...)
	}
	return out
}

// chipWords packs each chip sequence into one word, chip i at bit i, so
// correlating a window against a sequence is an XOR and a population
// count: agreement = 32 - OnesCount32(window ^ sequence).
var chipWords = func() (w [16]uint32) {
	for s := range chipTable {
		w[s] = packChips(chipTable[s][:])
	}
	return w
}()

// packChips packs a 32-chip window into a word, chip i at bit i (only the
// low bit of each entry counts).
func packChips(chips []bits.Bit) uint32 {
	var w uint32
	for i, c := range chips {
		w |= uint32(c&1) << i
	}
	return w
}

// ChipWord returns the chip sequence of symbol s (taken mod 16) packed as
// DespreadWord expects it: chip i at bit i.
func ChipWord(s int) uint32 {
	return chipWords[s&15]
}

// DespreadWord correlates one packed 32-chip window (chip i at bit i)
// against all 16 sequences and returns the best symbol and its chip
// agreement count (32 = perfect). Ties go to the lower symbol.
//
//sledzig:noalloc
func DespreadWord(w uint32) (symbol, agreement int) {
	best, bestDist := 0, ChipsPerSymbol+1
	for s, ref := range chipWords {
		if d := mbits.OnesCount32(w ^ ref); d < bestDist {
			best, bestDist = s, d
		}
	}
	return best, ChipsPerSymbol - bestDist
}

// DespreadSymbol correlates one 32-chip window against all 16 sequences and
// returns the best symbol and its chip agreement count (32 = perfect).
func DespreadSymbol(chips []bits.Bit) (symbol, agreement int, err error) {
	if len(chips) != ChipsPerSymbol {
		return 0, 0, fmt.Errorf("zigbee: despread window must be %d chips, got %d", ChipsPerSymbol, len(chips))
	}
	symbol, agreement = DespreadWord(packChips(chips))
	return symbol, agreement, nil
}

// Despread recovers bytes from a chip stream (length a multiple of 64
// chips, i.e. whole octets). It also reports the minimum per-symbol chip
// agreement seen, a quality indicator.
func Despread(chips []bits.Bit) (data []byte, minAgreement int, err error) {
	if len(chips)%(2*ChipsPerSymbol) != 0 {
		return nil, 0, fmt.Errorf("zigbee: chip stream length %d is not a whole number of octets", len(chips))
	}
	minAgreement = ChipsPerSymbol
	data = make([]byte, 0, len(chips)/(2*ChipsPerSymbol))
	for off := 0; off < len(chips); off += 2 * ChipsPerSymbol {
		lo, a1, err := DespreadSymbol(chips[off : off+ChipsPerSymbol])
		if err != nil {
			return nil, 0, err
		}
		hi, a2, err := DespreadSymbol(chips[off+ChipsPerSymbol : off+2*ChipsPerSymbol])
		if err != nil {
			return nil, 0, err
		}
		if a1 < minAgreement {
			minAgreement = a1
		}
		if a2 < minAgreement {
			minAgreement = a2
		}
		data = append(data, byte(lo)|byte(hi)<<4)
	}
	return data, minAgreement, nil
}

// MinSequenceDistance returns the minimum pairwise Hamming distance among
// the 16 chip sequences — the margin that makes DSSS robust to partial
// chip corruption.
func MinSequenceDistance() int {
	minD := ChipsPerSymbol
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			minD = min(minD, mbits.OnesCount32(chipWords[a]^chipWords[b]))
		}
	}
	return minD
}
