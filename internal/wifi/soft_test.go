package wifi

import (
	"math"
	"math/rand"
	"testing"

	"sledzig/internal/bits"
)

func TestSoftDemapSignsMatchHardDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, conv := range []Convention{ConventionIEEE, ConventionPaper} {
		for _, m := range []Modulation{QPSK, QAM16, QAM64, QAM256} {
			n := m.BitsPerSubcarrier()
			pts := make([]complex64, 50)
			for i := range pts {
				pts[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
			}
			hard := make([]bits.Bit, len(pts)*n)
			soft := make([]float64, len(pts)*n)
			if err := conv.DemapAll64Into(hard, m, pts); err != nil {
				t.Fatal(err)
			}
			if err := conv.SoftDemapAll64Into(soft, m, pts); err != nil {
				t.Fatal(err)
			}
			for b := range hard {
				wantNeg := hard[b] == 1 // bit 1 => LLR <= 0
				if soft[b] != 0 && (soft[b] < 0) != wantNeg {
					t.Fatalf("%v %v: bit %d hard=%d but LLR=%g (point %v)",
						conv, m, b%n, hard[b], soft[b], pts[b/n])
				}
			}
		}
	}
}

func TestSoftDemapCleanPointsAreConfident(t *testing.T) {
	for _, m := range []Modulation{QAM16, QAM64} {
		n := m.BitsPerSubcarrier()
		for v := 0; v < 1<<n; v++ {
			label := bits.FromUint(uint64(v), n)
			p := mapPoint(t, ConventionIEEE, m, label)
			llrs := make([]float64, n)
			if err := ConventionIEEE.SoftDemapAll64Into(llrs, m, []complex64{complex64(p)}); err != nil {
				t.Fatal(err)
			}
			for b, l := range llrs {
				if label[b] == 0 && l <= 0 {
					t.Fatalf("%v point %d bit %d: LLR %g should be positive", m, v, b, l)
				}
				if label[b] == 1 && l >= 0 {
					t.Fatalf("%v point %d bit %d: LLR %g should be negative", m, v, b, l)
				}
			}
		}
	}
}

func TestViterbiSoftMatchesHardOnCleanData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := bits.Random(rng, 300)
	data = append(data, make([]bits.Bit, 6)...)
	coded := ConvolutionalEncode(data)
	llrs := make([]float64, len(coded))
	for i, b := range coded {
		if b == 0 {
			llrs[i] = 4
		} else {
			llrs[i] = -4
		}
	}
	decoded, err := ViterbiDecodeSoftInto(nil, llrs, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(decoded, data) {
		t.Fatal("soft Viterbi failed on clean LLRs")
	}
}

func TestViterbiSoftExploitsConfidence(t *testing.T) {
	// Flip several bits but mark them low-confidence: soft decoding must
	// recover where the flips cluster closer than hard decisions allow.
	rng := rand.New(rand.NewSource(3))
	data := bits.Random(rng, 200)
	data = append(data, make([]bits.Bit, 6)...)
	coded := ConvolutionalEncode(data)
	llrs := make([]float64, len(coded))
	for i, b := range coded {
		if b == 0 {
			llrs[i] = 4
		} else {
			llrs[i] = -4
		}
	}
	// Dense cluster of weak wrong bits.
	for _, pos := range []int{100, 102, 104, 106} {
		llrs[pos] = -llrs[pos] * 0.1
	}
	decoded, err := ViterbiDecodeSoftInto(nil, llrs, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(decoded, data) {
		t.Fatal("soft Viterbi failed to exploit confidence")
	}
}

func TestSoftReceiverRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, conv := range []Convention{ConventionIEEE, ConventionPaper} {
		mode := Mode{Modulation: QAM64, CodeRate: Rate34}
		psdu := bits.RandomBytes(rng, 256)
		frame, err := Transmitter{Mode: mode, Convention: conv}.Frame(psdu)
		if err != nil {
			t.Fatal(err)
		}
		wave, err := frame.Waveform()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Receiver{Convention: conv, Soft: true}.Receive(wave)
		if err != nil {
			t.Fatalf("%v: %v", conv, err)
		}
		for i := range psdu {
			if res.PSDU[i] != psdu[i] {
				t.Fatalf("%v: PSDU mismatch at %d", conv, i)
			}
		}
	}
}

// TestSoftBeatsHardUnderNoise measures frame success at an SNR where the
// hard-decision chain struggles: the soft chain must do at least as well,
// and strictly better in aggregate.
func TestSoftBeatsHardUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mode := Mode{Modulation: QAM64, CodeRate: Rate34}
	const trials = 30
	snrDB := 18.0 // between soft and hard thresholds for this mode
	hardOK, softOK := 0, 0
	for trial := 0; trial < trials; trial++ {
		psdu := bits.RandomBytes(rng, 100)
		frame, err := Transmitter{Mode: mode}.Frame(psdu)
		if err != nil {
			t.Fatal(err)
		}
		wave, err := frame.Waveform()
		if err != nil {
			t.Fatal(err)
		}
		var sig float64
		for _, v := range wave {
			sig += real(v)*real(v) + imag(v)*imag(v)
		}
		sig /= float64(len(wave))
		sigma := math.Sqrt(sig / math.Pow(10, snrDB/10) * 64 / 52 / 2)
		noisy := make([]complex128, len(wave))
		for i, v := range wave {
			noisy[i] = v + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
		check := func(soft bool) bool {
			res, err := Receiver{Soft: soft}.Receive(noisy)
			if err != nil || len(res.PSDU) != len(psdu) {
				return false
			}
			for i := range psdu {
				if res.PSDU[i] != psdu[i] {
					return false
				}
			}
			return true
		}
		if check(false) {
			hardOK++
		}
		if check(true) {
			softOK++
		}
	}
	if softOK < hardOK {
		t.Fatalf("soft (%d/%d) worse than hard (%d/%d)", softOK, trials, hardOK, trials)
	}
	if softOK == 0 {
		t.Fatalf("soft chain decoded nothing at %g dB", snrDB)
	}
}

// TestDepunctureFloats checks the soft scatter erases what the table
// punctures: eight LLRs through a rate-3/4 table over the identity
// interleaver land in mother slots 0-2, 5-8 and 11 of a 12-slot block,
// whose other slots (stale values here) come back as zero erasures.
func TestDepunctureFloats(t *testing.T) {
	in := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	slots := make([]uint16, len(in))
	BuildCodedSlots(slots, Rate34, func(j int) int { return j })
	out := []float64{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
	scatterLLRs(out, in, slots)
	want := []float64{1, 2, 3, 0, 0, 4, 5, 6, 7, 0, 0, 8}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %g, want %g", i, out[i], want[i])
		}
	}
}
