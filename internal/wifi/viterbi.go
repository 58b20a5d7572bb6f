package wifi

import (
	"fmt"
	"sync"

	"sledzig/internal/bits"
)

// Table-driven Viterbi decoder for the rate-1/2, constraint-7 mother code.
//
// The trellis is precomputed once per process: for destination state ns the
// two predecessors are fixed (ns>>1 and ns>>1|32, both consuming input bit
// ns&1), and each transition's coded output pair is a 2-bit index into a
// per-step table of the four possible branch metrics. Path metrics live in
// fixed-size arrays pointer-swapped between steps, and survivor decisions
// are bit-packed
// — one uint64 word per trellis step (64 states, one decision bit each) —
// so a 1500-byte frame's survivor memory is ~100 KiB smaller than the
// struct-matrix representation and is recycled through a sync.Pool.
//
// The add-compare-select forward pass is a kernel function handed to the
// decode body (see viterbi_acs.go): production passes the word kernels,
// which compute all 64 states with branch-free, word-parallel arithmetic
// (eight byte lanes per uint64 for hard decisions, sign-bit selects for
// soft); the identity tests pass the straightforward paired-butterfly
// loops the word kernels are tested byte-identical against.

const viterbiStates = 64 // 2^(K-1)

// hardACS and softACS run the full forward pass of one decode, filling
// s.decisions and returning the final path metrics for the best-state
// scan.
type (
	hardACS func(s *viterbiScratch, coded []bits.Bit, erased []bool, steps int) *[viterbiStates]int32
	softACS func(s *viterbiScratch, llrs []float64, steps int) *[viterbiStates]float64
)

// trellis holds the per-destination branch-output indices: for destination
// state ns, out0[ns]/out1[ns] are y0<<1|y1 of the transition from
// predecessor ns>>1 resp. ns>>1|32 under input ns&1.
type trellis struct {
	out0 [viterbiStates]uint8
	out1 [viterbiStates]uint8
	// hardBM0/hardBM1 are the word-parallel branch-metric tables: for
	// received-pair/erasure combo k (r0 | r1<<1 | e0<<2 | e1<<3) and
	// destination word w, byte lane i of hardBM0[k][w] holds the Hamming
	// branch metric of the transition into state 8w+i from its low
	// predecessor ((8w+i)>>1), and hardBM1 from its high predecessor
	// ((8w+i)>>1 | 32). See viterbi_acs.go.
	hardBM0 [16][viterbiStates / 8]uint64
	hardBM1 [16][viterbiStates / 8]uint64
}

var (
	trellisOnce sync.Once
	trellisTab  trellis
)

// viterbiTrellis returns the process-wide precomputed trellis tables.
func viterbiTrellis() *trellis {
	trellisOnce.Do(func() {
		pair := func(s, in int) uint8 {
			window := (uint32(s)<<1 | uint32(in)) & 0x7F
			y0, y1 := EncodeStep(window)
			return uint8(y0)<<1 | uint8(y1)
		}
		for ns := 0; ns < viterbiStates; ns++ {
			in := ns & 1
			trellisTab.out0[ns] = pair(ns>>1, in)
			trellisTab.out1[ns] = pair(ns>>1|32, in)
		}
		for combo := 0; combo < 16; combo++ {
			r0 := int32(combo & 1)
			r1 := int32(combo >> 1 & 1)
			e0 := int32(combo >> 2 & 1)
			e1 := int32(combo >> 3 & 1)
			var bmv [4]uint64
			for y := 0; y < 4; y++ {
				y0, y1 := int32(y>>1), int32(y&1)
				d0, d1 := r0^y0, r1^y1
				bmv[y] = uint64(e0*d0 + e1*d1)
			}
			for ns := 0; ns < viterbiStates; ns++ {
				w, lane := ns/8, uint(ns%8)
				trellisTab.hardBM0[combo][w] |= bmv[trellisTab.out0[ns]&3] << (8 * lane)
				trellisTab.hardBM1[combo][w] |= bmv[trellisTab.out1[ns]&3] << (8 * lane)
			}
		}
	})
	return &trellisTab
}

// viterbiScratch is the recycled working state of one decode: fixed-size
// metric arrays (float for soft, int32 for hard — pointer-swapped between
// steps, and sized by a constant so the hot loop needs no bounds checks),
// the byte-lane metric words of the word-parallel hard kernel, and the
// bit-packed survivor words, grown to the longest frame seen.
type viterbiScratch struct {
	m0, m1    [viterbiStates]float64
	h0, h1    [viterbiStates]int32
	w0, w1    [viterbiStates / 8]uint64
	decisions []uint64
}

var viterbiPool = sync.Pool{New: func() any { return new(viterbiScratch) }}

func (s *viterbiScratch) grow(steps int) {
	if cap(s.decisions) < steps {
		s.decisions = make([]uint64, steps)
	}
	s.decisions = s.decisions[:steps]
}

// growBits returns dst resized to n elements, reusing its capacity.
func growBits(dst []bits.Bit, n int) []bits.Bit {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]bits.Bit, n)
}

// ViterbiDecodeSoftInto is ViterbiDecodeSoft decoding into dst (reusing its
// capacity) and returning the resized slice. llrs holds one value per
// mother-coded bit (positive favours 0), zeros acting as erasures.
//
//sledzig:noalloc
func ViterbiDecodeSoftInto(dst []bits.Bit, llrs []float64, terminated bool) ([]bits.Bit, error) {
	return viterbiDecodeSoftInto(dst, llrs, terminated, wordSoftACS)
}

// viterbiDecodeSoftInto is ViterbiDecodeSoftInto with the forward-pass
// kernel as an argument.
//
//sledzig:noalloc
func viterbiDecodeSoftInto(dst []bits.Bit, llrs []float64, terminated bool, acs softACS) ([]bits.Bit, error) {
	if len(llrs)%2 != 0 {
		return dst, fmt.Errorf("wifi: LLR stream length %d is odd", len(llrs))
	}
	steps := len(llrs) / 2
	if steps == 0 {
		return dst[:0], nil
	}
	s := viterbiPool.Get().(*viterbiScratch)
	defer viterbiPool.Put(s)
	s.grow(steps)
	return survivorPath(dst, s.decisions, acs(s, llrs, steps), terminated), nil
}

// ViterbiDecodeInto is ViterbiDecode decoding into dst (reusing its
// capacity) and returning the resized slice.
//
//sledzig:noalloc
func ViterbiDecodeInto(dst []bits.Bit, coded []bits.Bit, erased []bool, terminated bool) ([]bits.Bit, error) {
	return viterbiDecodeInto(dst, coded, erased, terminated, wordHardACS)
}

// viterbiDecodeInto is ViterbiDecodeInto with the forward-pass kernel as
// an argument.
//
//sledzig:noalloc
func viterbiDecodeInto(dst []bits.Bit, coded []bits.Bit, erased []bool, terminated bool, acs hardACS) ([]bits.Bit, error) {
	if len(coded)%2 != 0 {
		return dst, fmt.Errorf("wifi: coded length %d is odd", len(coded))
	}
	if erased != nil && len(erased) != len(coded) {
		return dst, fmt.Errorf("wifi: erasure mask length %d != coded length %d", len(erased), len(coded))
	}
	steps := len(coded) / 2
	if steps == 0 {
		return dst[:0], nil
	}
	s := viterbiPool.Get().(*viterbiScratch)
	defer viterbiPool.Put(s)
	s.grow(steps)
	return survivorPath(dst, s.decisions, acs(s, coded, erased, steps), terminated), nil
}

// survivorPath picks the end state — state 0 for a terminated stream,
// else the best final metric — and traces the decoded bits back into dst
// (reusing its capacity).
func survivorPath[M int32 | float64](dst []bits.Bit, decisions []uint64, metric *[viterbiStates]M, terminated bool) []bits.Bit {
	best := 0
	if !terminated {
		for st := 1; st < viterbiStates; st++ {
			if metric[st] < metric[best] {
				best = st
			}
		}
	}
	dst = growBits(dst, len(decisions))
	traceback(dst, decisions, best)
	return dst
}

// traceback walks the bit-packed survivor words from the chosen end state,
// writing the decoded input bits into dst (len(dst) == len(decisions)).
// Destination state ns encodes its own input bit at bit 0, and the stored
// decision says whether the winning predecessor was ns>>1 | 32.
func traceback(dst []bits.Bit, decisions []uint64, best int) {
	state := best
	for t := len(decisions) - 1; t >= 0; t-- {
		dst[t] = bits.Bit(state & 1)
		d := int(decisions[t]>>uint(state)) & 1
		state = state>>1 | d<<5
	}
}
