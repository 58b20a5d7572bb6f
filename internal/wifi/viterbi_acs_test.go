package wifi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sledzig/internal/bits"
)

// scalar oracles for the SWAR helpers.

func lanes(x uint64) [8]uint8 {
	var l [8]uint8
	for i := range l {
		l[i] = uint8(x >> (8 * uint(i)))
	}
	return l
}

func fromLanes(l [8]uint8) uint64 {
	var x uint64
	for i, b := range l {
		x |= uint64(b) << (8 * uint(i))
	}
	return x
}

func randLanes(rng *rand.Rand, max int) uint64 {
	var l [8]uint8
	for i := range l {
		l[i] = uint8(rng.Intn(max + 1))
	}
	return fromLanes(l)
}

func TestSwarDup4(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1000; trial++ {
		x := rng.Uint64() & 0xFFFFFFFF
		got := lanes(swarDup4(x))
		for i := 0; i < 8; i++ {
			want := uint8(x >> (8 * uint(i/2)))
			if got[i] != want {
				t.Fatalf("swarDup4(%#x) lane %d = %#x, want %#x", x, i, got[i], want)
			}
		}
	}
}

func TestSwarCompareSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		a, b := randLanes(rng, 127), randLanes(rng, 127)
		la, lb := lanes(a), lanes(b)

		ge := lanes(swarGE(a, b))
		min := lanes(swarMin(a, b))
		sm, dec := swarSelectMin(a, b)
		lsm, ldec := lanes(sm), lanes(dec)
		cl := lanes(swarClampInf(a))
		for i := 0; i < 8; i++ {
			wantGE := uint8(0)
			if la[i] >= lb[i] {
				wantGE = 0xFF
			}
			if ge[i] != wantGE {
				t.Fatalf("swarGE lane %d: %d vs %d -> %#x, want %#x", i, la[i], lb[i], ge[i], wantGE)
			}
			wantMin := la[i]
			if lb[i] < la[i] {
				wantMin = lb[i]
			}
			if min[i] != wantMin {
				t.Fatalf("swarMin lane %d: min(%d,%d) = %d, want %d", i, la[i], lb[i], min[i], wantMin)
			}
			// swarSelectMin(c0=a, c1=b): decision 1 iff c1 < c0, ties keep c0.
			wantDec := uint8(0)
			if lb[i] < la[i] {
				wantDec = 1
			}
			if lsm[i] != wantMin || ldec[i] != wantDec {
				t.Fatalf("swarSelectMin lane %d: (%d,%d) -> (%d,%d), want (%d,%d)",
					i, la[i], lb[i], lsm[i], ldec[i], wantMin, wantDec)
			}
			wantClamp := la[i]
			if wantClamp > hardLaneInf {
				wantClamp = hardLaneInf
			}
			if cl[i] != wantClamp {
				t.Fatalf("swarClampInf lane %d: %d -> %d, want %d", i, la[i], cl[i], wantClamp)
			}
		}
	}
}

func TestSwarGatherDec(t *testing.T) {
	for pattern := 0; pattern < 256; pattern++ {
		var dec uint64
		for i := 0; i < 8; i++ {
			dec |= uint64(pattern>>uint(i)&1) << (8 * uint(i))
		}
		if got := swarGatherDec(dec); got != uint64(pattern) {
			t.Fatalf("swarGatherDec(%#x) = %#x, want %#x", dec, got, pattern)
		}
	}
}

// TestTrellisGeneratorStructure pins the property the soft word kernel
// exploits: both generator polynomials tap delays 0 and 6, so flipping the
// input bit (odd destination) or the predecessor's oldest bit (high
// predecessor) flips both coded outputs.
func TestTrellisGeneratorStructure(t *testing.T) {
	tr := viterbiTrellis()
	for ns := 0; ns < viterbiStates; ns++ {
		if tr.out1[ns] != tr.out0[ns]^3 {
			t.Fatalf("state %d: out1 = %#b, want out0^3 = %#b", ns, tr.out1[ns], tr.out0[ns]^3)
		}
	}
	for p := 0; p < viterbiStates/2; p++ {
		if tr.out0[2*p+1] != tr.out0[2*p]^3 {
			t.Fatalf("pair %d: out0[odd] = %#b, want out0[even]^3 = %#b", p, tr.out0[2*p+1], tr.out0[2*p]^3)
		}
	}
}

// requireIdentical fails the test when a word-kernel decode got differs
// from the reference-kernel decode want.
func requireIdentical(t *testing.T, desc string, got, want []bits.Bit) {
	t.Helper()
	if !bits.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: word kernel diverges from reference at bit %d (lengths %d vs %d)",
			desc, i, len(got), len(want))
	}
}

// TestViterbiKernelIdentityStreams drives both kernels over randomized
// punctured streams at every code rate — clean, noisy, erasure-laden, and
// tie-heavy — and requires byte-identical decodes, terminated or not.
func TestViterbiKernelIdentityStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	rates := []CodeRate{Rate12, Rate23, Rate34, Rate56}
	// Lengths straddle the warm-up window (6 steps) and several
	// normalization periods (32 steps) of the word kernel.
	lengths := []int{1, 5, 6, 7, 31, 32, 33, 64, 100, 257, 1000}
	for _, rate := range rates {
		for _, n := range lengths {
			for trial := 0; trial < 4; trial++ {
				data := make([]bits.Bit, n)
				for i := range data {
					data[i] = bits.Bit(rng.Intn(2))
				}
				punctured, err := EncodeAndPuncture(data, rate)
				if err != nil {
					t.Fatal(err)
				}
				// Flip a noise-dependent share of the received bits.
				for i := range punctured {
					if rng.Float64() < 0.04*float64(trial) {
						punctured[i] ^= 1
					}
				}
				coded, erased, err := Depuncture(punctured, rate)
				if err != nil {
					t.Fatal(err)
				}
				mother := signedMother(coded, erased)
				terminated := trial%2 == 0
				want, err := decode(new(viterbiScratch), nil, mother, terminated, refHardACS)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ViterbiDecodeInto(nil, mother, terminated)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("hard rate %v len %d trial %d", rate, n, trial), got, want)

				// Soft: LLR per mother bit, zeros on erasures. Trial 3
				// draws from {-1, 0, +1} to force metric ties.
				llrs := make([]float64, len(coded))
				for i := range llrs {
					if erased[i] {
						continue
					}
					sign := 1.0
					if coded[i] == 1 {
						sign = -1.0
					}
					if trial == 3 {
						llrs[i] = float64(rng.Intn(3) - 1)
					} else {
						llrs[i] = sign * (0.25 + rng.Float64()) * (1 - 0.3*float64(trial)*rng.Float64())
					}
				}
				want, err = decode(new(viterbiScratch), nil, llrs, terminated, refSoftACS)
				if err != nil {
					t.Fatal(err)
				}
				got, err = ViterbiDecodeSoftInto(nil, llrs, terminated)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("soft rate %v len %d trial %d", rate, n, trial), got, want)
			}
		}
	}
}

// TestViterbiKernelIdentityModes runs the full transmit→receive pipeline
// (through the complex128 oracle, whose Viterbi stage takes the kernels as
// arguments) at every code rate × modulation combination under both
// kernels, hard and soft, over a noisy channel, and requires
// byte-identical recovered PSDUs.
func TestViterbiKernelIdentityModes(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, mod := range []Modulation{QAM16, QAM64, QAM256} {
		for _, rate := range []CodeRate{Rate12, Rate23, Rate34, Rate56} {
			mode := Mode{mod, rate}
			if _, err := rateCode(mode); err != nil {
				// Combination has no SIGNAL RATE code (not a transmittable
				// 802.11 mode); the stream-level identity test still covers
				// this code rate directly.
				continue
			}
			psdu := bits.RandomBytes(rng, 300)
			frame, err := Transmitter{Mode: mode}.Frame(psdu)
			if err != nil {
				t.Fatal(err)
			}
			wave, err := frame.Waveform()
			if err != nil {
				t.Fatal(err)
			}
			// Mild AWGN: enough to make branch decisions non-trivial while
			// every mode still decodes.
			noisy := make([]complex128, len(wave))
			for i, v := range wave {
				noisy[i] = v + complex(rng.NormFloat64(), rng.NormFloat64())*0.002
			}
			for _, soft := range []bool{false, true} {
				want := wideReceive(t, noisy, soft, refACS)
				got := wideReceive(t, noisy, soft, wordACS)
				requireIdentical(t, fmt.Sprintf("%v soft=%v", mode, soft), bits.FromBytes(got.PSDU), bits.FromBytes(want.PSDU))
			}
		}
	}
}

// viterbiInfI32 is the reference hard kernel's "unreached state" metric.
const viterbiInfI32 = int32(1) << 30

// refHardACS is the scalar paired-butterfly hard pass — the oracle the
// word kernel is tested byte-identical against.
func refHardACS(s *viterbiScratch, mother []int8, steps int) *[viterbiStates]int32 {
	tr := viterbiTrellis()
	metric, next := &s.h0, &s.h1
	for i := range metric {
		metric[i] = viterbiInfI32
	}
	metric[0] = 0

	var bmv [4]int32
	for t := 0; t < steps; t++ {
		// Hamming branch metrics against the received pair's signs (a
		// negative value is bit 1), with erased (zero) positions
		// contributing nothing; four values indexed by y0<<1|y1.
		v0, v1 := mother[2*t], mother[2*t+1]
		var r0, r1, e0, e1 int32
		if v0 < 0 {
			r0 = 1
		}
		if v1 < 0 {
			r1 = 1
		}
		if v0 != 0 {
			e0 = 1
		}
		if v1 != 0 {
			e1 = 1
		}
		bmv[0] = e0*r0 + e1*r1         // outputs (0,0)
		bmv[1] = e0*r0 + e1*(1-r1)     // outputs (0,1)
		bmv[2] = e0*(1-r0) + e1*r1     // outputs (1,0)
		bmv[3] = e0*(1-r0) + e1*(1-r1) // outputs (1,1)
		var word uint64
		for p := 0; p < viterbiStates/2; p++ {
			m0, m1 := metric[p], metric[p+32]
			ns := 2 * p
			c0 := m0 + bmv[tr.out0[ns]&3]
			c1 := m1 + bmv[tr.out1[ns]&3]
			if c1 < c0 {
				next[ns] = c1
				word |= 1 << uint(ns)
			} else {
				next[ns] = c0
			}
			ns++
			c0 = m0 + bmv[tr.out0[ns]&3]
			c1 = m1 + bmv[tr.out1[ns]&3]
			if c1 < c0 {
				next[ns] = c1
				word |= 1 << uint(ns)
			} else {
				next[ns] = c0
			}
		}
		s.decisions[t] = word
		metric, next = next, metric
	}
	return metric
}

// refSoftACS is the scalar paired-butterfly soft pass (see refHardACS).
func refSoftACS(s *viterbiScratch, llrs []float64, steps int) *[viterbiStates]float64 {
	tr := viterbiTrellis()
	metric, next := &s.m0, &s.m1
	inf := math.Inf(1)
	for i := range metric {
		metric[i] = inf
	}
	metric[0] = 0

	var bmv [4]float64
	for t := 0; t < steps; t++ {
		// Cost of asserting bit value b against LLR l (l = log P(0)/P(1)):
		// add l when the branch outputs 1, -l when it outputs 0; constant
		// offsets cancel. Only four branch metrics exist per step, indexed
		// by the output pair y0<<1|y1.
		l0, l1 := llrs[2*t], llrs[2*t+1]
		bmv[0] = -l0 - l1
		bmv[1] = -l0 + l1
		bmv[2] = l0 - l1
		bmv[3] = l0 + l1
		var word uint64
		// Destination states 2p and 2p+1 share the predecessor pair
		// (p, p+32); walking pairs halves the path-metric loads.
		for p := 0; p < viterbiStates/2; p++ {
			m0, m1 := metric[p], metric[p+32]
			ns := 2 * p
			c0 := m0 + bmv[tr.out0[ns]&3]
			c1 := m1 + bmv[tr.out1[ns]&3]
			if c1 < c0 {
				next[ns] = c1
				word |= 1 << uint(ns)
			} else {
				next[ns] = c0
			}
			ns++
			c0 = m0 + bmv[tr.out0[ns]&3]
			c1 = m1 + bmv[tr.out1[ns]&3]
			if c1 < c0 {
				next[ns] = c1
				word |= 1 << uint(ns)
			} else {
				next[ns] = c0
			}
		}
		s.decisions[t] = word
		metric, next = next, metric
	}
	return metric
}
