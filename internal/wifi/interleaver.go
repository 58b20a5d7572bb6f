package wifi

import (
	"fmt"

	"sledzig/internal/bits"
)

// The 802.11 block interleaver operates on one OFDM symbol of N_CBPS coded
// bits with two permutations (17.3.5.7). The first ensures adjacent coded
// bits land on nonadjacent subcarriers; the second alternates adjacent bits
// between more- and less-significant constellation positions.

// InterleaveIndex maps a coded-bit index k (0-based, within one OFDM
// symbol) to its post-interleaving position for the given modulation.
func InterleaveIndex(m Modulation, k int) int {
	nCBPS := NumDataSubcarriers * m.BitsPerSubcarrier()
	s := m.BitsPerSubcarrier() / 2
	if s < 1 {
		s = 1
	}
	i := (nCBPS/16)*(k%16) + k/16
	j := s*(i/s) + (i+nCBPS-(16*i)/nCBPS)%s
	return j
}

// DeinterleaveIndex maps a post-interleaving position j back to the coded-
// bit index that produced it — the inverse of InterleaveIndex.
func DeinterleaveIndex(m Modulation, j int) int {
	nCBPS := NumDataSubcarriers * m.BitsPerSubcarrier()
	s := m.BitsPerSubcarrier() / 2
	if s < 1 {
		s = 1
	}
	i := s*(j/s) + (j+(16*j)/nCBPS)%s
	k := 16*i - (nCBPS-1)*((16*i)/nCBPS)
	return k
}

// Interleave permutes one OFDM symbol's worth of coded bits. The input
// length must equal N_CBPS for the modulation.
func Interleave(m Modulation, in []bits.Bit) ([]bits.Bit, error) {
	nCBPS := NumDataSubcarriers * m.BitsPerSubcarrier()
	if len(in) != nCBPS {
		return nil, fmt.Errorf("wifi: interleave input length %d != N_CBPS %d for %v", len(in), nCBPS, m)
	}
	out := make([]bits.Bit, nCBPS)
	for k, b := range in {
		out[InterleaveIndex(m, k)] = b
	}
	return out, nil
}

// Deinterleave inverts Interleave.
func Deinterleave(m Modulation, in []bits.Bit) ([]bits.Bit, error) {
	nCBPS := NumDataSubcarriers * m.BitsPerSubcarrier()
	if len(in) != nCBPS {
		return nil, fmt.Errorf("wifi: deinterleave input length %d != N_CBPS %d for %v", len(in), nCBPS, m)
	}
	out := make([]bits.Bit, nCBPS)
	for j, b := range in {
		out[DeinterleaveIndex(m, j)] = b
	}
	return out, nil
}
