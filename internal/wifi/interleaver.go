package wifi

// The 802.11 block interleaver operates on one OFDM symbol of N_CBPS coded
// bits with two permutations (17.3.5.7). The first ensures adjacent coded
// bits land on nonadjacent subcarriers; the second alternates adjacent bits
// between more- and less-significant constellation positions.

// InterleaveIndex maps a coded-bit index k (0-based, within one OFDM
// symbol) to its post-interleaving position for the given modulation.
func InterleaveIndex(m Modulation, k int) int {
	return InterleaveIndexCols(NumDataSubcarriers*m.BitsPerSubcarrier(), 16, m, k)
}

// DeinterleaveIndex maps a post-interleaving position j back to the coded-
// bit index that produced it — the inverse of InterleaveIndex.
func DeinterleaveIndex(m Modulation, j int) int {
	return DeinterleaveIndexCols(NumDataSubcarriers*m.BitsPerSubcarrier(), 16, m, j)
}

// InterleaveIndexCols is the interleaver of a symbol of nCBPS coded bits
// written into nCol columns: 16 on the 20 MHz format, 18 on the 40 MHz
// HT format (whose third, frequency-rotation permutation applies only to
// additional spatial streams).
func InterleaveIndexCols(nCBPS, nCol int, m Modulation, k int) int {
	s := max(m.BitsPerSubcarrier()/2, 1)
	i := (nCBPS/nCol)*(k%nCol) + k/nCol
	return s*(i/s) + (i+nCBPS-(nCol*i)/nCBPS)%s
}

// DeinterleaveIndexCols inverts InterleaveIndexCols.
func DeinterleaveIndexCols(nCBPS, nCol int, m Modulation, j int) int {
	s := max(m.BitsPerSubcarrier()/2, 1)
	i := s*(j/s) + (j+(nCol*j)/nCBPS)%s
	return nCol*i - (nCBPS-1)*((nCol*i)/nCBPS)
}

// maxCodedBits bounds N_CBPS on the 20 MHz format (QAM-256: 48 x 8).
const maxCodedBits = NumDataSubcarriers * maxBitsPerSubcarrier

// slotTables holds the placement table of every convention and mode,
// slotTables[c][m-1][r-1][:N_CBPS], in fixed-size arrays rather than on
// the heap (see Convention.CodedSlots).
var slotTables [ConventionPaper + 1][QAM256][Rate56][maxCodedBits]uint16

func init() {
	for c := ConventionIEEE; c <= ConventionPaper; c++ {
		for m := BPSK; m <= QAM256; m++ {
			for r := Rate12; r <= Rate56; r++ {
				n := NumDataSubcarriers * m.BitsPerSubcarrier()
				BuildCodedSlots(slotTables[c][m-1][r-1][:n], r, func(j int) int { return c.DeinterleaveIndexC(m, j) })
			}
		}
	}
}

// CodedSlots returns the placement table of mode under the convention:
// entry j is the index, within one OFDM symbol's 2·N_DBPS-bit block of
// rate-1/2 mother code, of the j-th interleaved coded bit, in the order
// the mapper consumes them. The transmitter gathers through it, both
// receive chains scatter through it, and the SledZig planner reads its
// constraint positions from it; the mother slots no entry names are the
// punctured ones. The table is built once at package init and shared by
// every caller: it must not be modified. nil for an invalid mode.
//
//sledzig:noalloc
func (c Convention) CodedSlots(m Mode) []uint16 {
	if !m.Modulation.Valid() || !m.CodeRate.Valid() {
		return nil
	}
	if c != ConventionPaper {
		c = ConventionIEEE // InterleaveIndexC's reading of any other value
	}
	n := m.CodedBitsPerSymbol()
	return slotTables[c][m.Modulation-1][m.CodeRate-1][:n:n]
}
