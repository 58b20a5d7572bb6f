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
// are bit-packed — one uint64 word per trellis step (64 states, one
// decision bit each) — so a 1500-byte frame's survivor memory is ~100 KiB
// smaller than the struct-matrix representation. The receiver keeps its
// decoder state in its RxResult; the standalone ViterbiDecodeInto and
// ViterbiDecodeSoftInto recycle theirs through viterbiPool.
//
// The add-compare-select forward pass is a kernel function handed to the
// decode body (see viterbi_acs.go): production passes the word kernels,
// which compute all 64 states with branch-free, word-parallel arithmetic
// (eight byte lanes per uint64 for hard decisions, sign-bit selects for
// soft); the identity tests pass the straightforward paired-butterfly
// loops the word kernels are tested byte-identical against.

const viterbiStates = 64 // 2^(K-1)

// trellis holds the per-destination branch-output indices: for destination
// state ns, out0[ns]/out1[ns] are y0<<1|y1 of the transition from
// predecessor ns>>1 resp. ns>>1|32 under input ns&1.
type trellis struct {
	out0 [viterbiStates]uint8
	out1 [viterbiStates]uint8
	// hardBM0/hardBM1 are the word-parallel branch-metric tables: for
	// received-pair combo k (r0 | r1<<1 | e0<<2 | e1<<3, r the decided bit
	// and e set unless the value is an erasure; see hardCombo) and
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

// viterbiScratch is the reusable working state of one decode: fixed-size
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

// grow returns s resized to n elements, reusing its capacity. A larger
// buffer gets a quarter of headroom over the old capacity, so a buffer
// reaches the largest frame's size in a few allocations, not one per
// larger frame, and the growth is one allocation with or without the
// race detector. Contents are unspecified: callers overwrite all n
// elements.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, cap(s)+cap(s)/4))
	}
	return s[:n]
}

// ViterbiDecodeSoftInto is the soft-metric counterpart of ViterbiDecodeInto:
// it decodes into dst (reusing its capacity) and returns the resized slice.
// llrs holds one value per mother-coded bit (positive favours 0), zeros
// acting as erasures.
//
//sledzig:noalloc
func ViterbiDecodeSoftInto(dst []bits.Bit, llrs []float64, terminated bool) ([]bits.Bit, error) {
	s := viterbiPool.Get().(*viterbiScratch)
	defer viterbiPool.Put(s)
	return decode(s, dst, llrs, terminated, wordSoftACS)
}

// ViterbiDecodeInto performs hard-decision maximum-likelihood decoding
// of the rate-1/2 mother code into dst (reusing its capacity) and returns
// the resized slice. mother holds the pairs (y_{2n-1}, y_{2n}) per input
// bit as signed values in the soft chain's sign convention: positive is
// bit 0, negative is bit 1, and 0 is an erasure (a punctured slot, which
// carries no branch metric); magnitudes are ignored. The encoder is
// assumed to start in the zero state; when terminated is true the decoder
// also assumes six zero tail bits returned it to the zero state, as the
// SIGNAL field guarantees.
//
//sledzig:noalloc
func ViterbiDecodeInto(dst []bits.Bit, mother []int8, terminated bool) ([]bits.Bit, error) {
	s := viterbiPool.Get().(*viterbiScratch)
	defer viterbiPool.Put(s)
	return decode(s, dst, mother, terminated, wordHardACS)
}

// decode runs one decode of the mother stream in (signed hard values or
// LLRs) in s. The kernel acs runs the whole forward pass, filling
// s.decisions, and returns the final path metrics for the best-state scan.
//
//sledzig:noalloc
func decode[T int8 | float64, M int32 | float64](s *viterbiScratch, dst []bits.Bit, in []T, terminated bool, acs func(*viterbiScratch, []T, int) *[viterbiStates]M) ([]bits.Bit, error) {
	if len(in)%2 != 0 {
		return dst, fmt.Errorf("wifi: mother stream length %d is odd", len(in))
	}
	steps := len(in) / 2
	if steps == 0 {
		return dst[:0], nil
	}
	s.decisions = grow(s.decisions, steps)
	return survivorPath(dst, s.decisions, acs(s, in, steps), terminated), nil
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
	dst = grow(dst, len(decisions))
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
