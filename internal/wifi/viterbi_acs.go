package wifi

import (
	"math"

	"sledzig/internal/bits"
)

// Add-compare-select kernels. The forward pass is the decoder's whole
// cost, and both kernels here are branch-free. The hard pass packs the 64
// path metrics into eight uint64 words of eight byte lanes each and runs
// the whole add-compare-select step with SIMD-within-a-register
// arithmetic — no data-dependent branches, eight states per instruction
// stream. The soft pass keeps float64 metrics but replaces the compare
// branch with a sign-bit select, and exploits the generator structure
// (both 802.11 polynomials tap delays 0 and 6) to load one branch metric
// per predecessor pair instead of four. The straightforward
// paired-butterfly loops (refHardACS and refSoftACS in
// viterbi_acs_test.go) are the reference these kernels are tested
// byte-identical against.
//
// Byte-lane representation of the hard kernel. Metrics are unsigned bytes
// ≤ hardLaneInf, so every SWAR compare precondition (lane values < 128)
// holds throughout:
//
//   - unreached states carry hardLaneInf (125). A lane can grow by at most
//     2 per step, and results are clamped back to 125, so lanes never
//     exceed 127 and additions never carry across lanes.
//   - every state is reachable from every state within K-1 = 6 steps of
//     cost ≤ 2 each, so once t ≥ 6 all lanes are finite and the metric
//     spread is ≤ 12. Subtracting the running minimum every
//     hardNormEvery = 32 steps therefore bounds finite lanes by
//     12 + 2*32 = 76 < 125: the clamp never binds a finite lane and byte
//     metrics stay exactly (reference metric − common constant), which
//     preserves every compare and tie-break of the reference kernel.
//   - decisions can differ from the reference only on states whose both
//     candidates are unreached ("infinite"), and traceback provably never
//     visits such a state: the traced path starts at a finite-metric state
//     and every stored decision on it chose a finite-metric predecessor.
//
// The decoded output is therefore byte-identical to the reference kernel
// for any input (viterbi_acs_test.go checks this across every code rate ×
// modulation combination, hard and soft).

// SWAR constants: per-lane LSB/MSB masks, the decision-gather multiplier,
// and the byte-lane "infinity".
const (
	swarLSB       uint64 = 0x0101010101010101
	swarMSB       uint64 = 0x8080808080808080
	swarGatherMul uint64 = 0x0102040810204080
	hardLaneInf          = 125
	hardNormEvery        = 32

	swarInfLanes    = swarLSB * hardLaneInf  // hardLaneInf in every lane
	swarClampBiased = swarInfLanes | swarMSB // (hardLaneInf | 0x80) per lane
)

// swarDup4 duplicates each byte of the low 32 bits into a byte pair:
// lanes b0,b1,b2,b3 become b0,b0,b1,b1,b2,b2,b3,b3. This is the
// predecessor-metric expansion: destination states 2p and 2p+1 share
// predecessor p, so four predecessor lanes feed eight destination lanes.
func swarDup4(x uint64) uint64 {
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	return x | x<<8
}

// swarGE returns 0xFF in every lane where a ≥ b and 0x00 elsewhere.
// Precondition: all lanes of a and b are ≤ 127.
func swarGE(a, b uint64) uint64 {
	ge := ((a | swarMSB) - b) & swarMSB
	return (ge << 1) - (ge >> 7)
}

// swarMin returns the lane-wise minimum. Precondition: lanes ≤ 127.
func swarMin(a, b uint64) uint64 {
	full := swarGE(a, b)
	return (b & full) | (a &^ full)
}

// swarSelectMin resolves one add-compare-select word: it returns the
// lane-wise min(c0, c1) and a word with bit 0 of each lane set where
// c1 < c0 (the survivor decision, matching the reference kernel's strict
// compare: ties keep the low predecessor). Precondition: lanes ≤ 127.
func swarSelectMin(c0, c1 uint64) (min, dec uint64) {
	full := swarGE(c1, c0) // 0xFF where c1 ≥ c0 → keep c0
	return (c0 & full) | (c1 &^ full), ^full & swarLSB
}

// swarClampInf clamps every lane to hardLaneInf. Precondition: lanes ≤ 127.
func swarClampInf(c uint64) uint64 {
	ge := (swarClampBiased - c) & swarMSB // lane MSB set iff hardLaneInf ≥ c
	full := (ge << 1) - (ge >> 7)
	return (c & full) | (swarInfLanes &^ full)
}

// swarGatherDec compresses the per-lane decision bits (bit 0 of each lane)
// into the low eight bits, lane i → bit i. The multiply routes lane i's
// bit to position 56+i with no two products colliding (8i+7j+7 = 56+k has
// the unique solution j = 7-i, k = i within lane range), so no carries
// reach the gathered byte.
func swarGatherDec(dec uint64) uint64 {
	return dec * swarGatherMul >> 56
}

// wordHardACS is the branch-free hard-decision forward pass: eight byte
// lanes per word, eight words for the 64 states, compare/select/clamp done
// with mask arithmetic. Fills s.decisions and returns the final metrics
// widened to int32 (byte lanes are reference metrics minus a common
// constant, so the best-state scan is unchanged).
func wordHardACS(s *viterbiScratch, coded []bits.Bit, erased []bool, steps int) *[viterbiStates]int32 {
	tr := viterbiTrellis()
	cur, nxt := &s.w0, &s.w1
	cur[0] = swarInfLanes &^ 0xFF // state 0 starts at 0, the rest unreached
	for w := 1; w < viterbiStates/8; w++ {
		cur[w] = swarInfLanes
	}
	for t := 0; t < steps; t++ {
		combo := int(coded[2*t]&1) | int(coded[2*t+1]&1)<<1 | 3<<2
		if erased != nil {
			if erased[2*t] {
				combo &^= 1 << 2
			}
			if erased[2*t+1] {
				combo &^= 1 << 3
			}
		}
		bm0, bm1 := &tr.hardBM0[combo], &tr.hardBM1[combo]
		var word uint64
		for w := 0; w < viterbiStates/8; w++ {
			// Destination word w draws its eight predecessors from four
			// lanes of word w>>1 (low predecessors) and word w>>1 | 4
			// (high predecessors), low or high half by w's parity.
			half := uint(w&1) * 32
			p0 := swarDup4(cur[w>>1] >> half & 0xFFFFFFFF)
			p1 := swarDup4(cur[w>>1|4] >> half & 0xFFFFFFFF)
			m, dec := swarSelectMin(p0+bm0[w], p1+bm1[w])
			nxt[w] = swarClampInf(m)
			word |= swarGatherDec(dec) << (8 * uint(w))
		}
		s.decisions[t] = word
		cur, nxt = nxt, cur
		if t&(hardNormEvery-1) == hardNormEvery-1 {
			// All lanes are finite by now; fold out the minimum and
			// subtract it everywhere (vacated fold lanes are filled with
			// 0x7F > any metric so they never win).
			m := cur[0]
			for w := 1; w < viterbiStates/8; w++ {
				m = swarMin(m, cur[w])
			}
			m = swarMin(m, m>>32|0x7F7F7F7F00000000)
			m = swarMin(m, m>>16|0x7F7F000000000000)
			m = swarMin(m, m>>8|0x7F00000000000000)
			sub := (m & 0xFF) * swarLSB
			for w := 0; w < viterbiStates/8; w++ {
				cur[w] -= sub
			}
		}
	}
	for st := 0; st < viterbiStates; st++ {
		s.h0[st] = int32(cur[st>>3] >> (8 * uint(st&7)) & 0xFF)
	}
	return &s.h0
}

// wordSoftACS is the branch-free soft forward pass. Both 802.11 generators
// tap delays 0 and 6, so flipping either the input bit (odd destination)
// or the predecessor's oldest bit (high predecessor) flips both coded
// outputs — the four branch metrics of one predecessor pair are ±b of a
// single table load. The compare is a sign-bit extraction and the select a
// mask blend, so the loop carries no data-dependent branches.
func wordSoftACS(s *viterbiScratch, llrs []float64, steps int) *[viterbiStates]float64 {
	tr := viterbiTrellis()
	metric, next := &s.m0, &s.m1
	inf := math.Inf(1)
	for i := range metric {
		metric[i] = inf
	}
	metric[0] = 0

	var bmv [4]float64
	for t := 0; t < steps; t++ {
		l0, l1 := llrs[2*t], llrs[2*t+1]
		bmv[0] = -l0 - l1
		bmv[1] = -l0 + l1
		bmv[2] = l0 - l1
		bmv[3] = l0 + l1
		var word uint64
		for p := 0; p < viterbiStates/2; p++ {
			m0, m1 := metric[p], metric[p+32]
			ns := 2 * p
			b := bmv[tr.out0[ns]&3]
			c0, c1 := m0+b, m1-b
			sel := math.Float64bits(c1-c0) >> 63 // 1 iff c1 < c0; ties keep c0
			u0, u1 := math.Float64bits(c0), math.Float64bits(c1)
			next[ns] = math.Float64frombits(u0 ^ (u0^u1)&-sel)
			word |= sel << uint(ns)
			c0, c1 = m0-b, m1+b
			sel = math.Float64bits(c1-c0) >> 63
			u0, u1 = math.Float64bits(c0), math.Float64bits(c1)
			next[ns+1] = math.Float64frombits(u0 ^ (u0^u1)&-sel)
			word |= sel << uint(ns+1)
		}
		s.decisions[t] = word
		metric, next = next, metric
	}
	return metric
}
