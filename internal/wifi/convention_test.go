package wifi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sledzig/internal/bits"
)

func TestConventionQAMRoundTripAllPoints(t *testing.T) {
	for _, conv := range []Convention{ConventionIEEE, ConventionPaper} {
		for _, m := range []Modulation{QPSK, QAM16, QAM64, QAM256} {
			n := m.BitsPerSubcarrier()
			for v := 0; v < 1<<n; v++ {
				in := bits.FromUint(uint64(v), n)
				p := mapPoint(t, conv, m, in)
				if out := demapPoint(t, conv, m, p); !bits.Equal(in, out) {
					t.Fatalf("%v %v: %s -> %v -> %s", conv, m, bits.String(in), p, bits.String(out))
				}
			}
		}
	}
}

func TestConventionConstellationsSharePoints(t *testing.T) {
	// Both labelings use the same physical constellation; only bit labels
	// differ. The multiset of points must match.
	for _, m := range []Modulation{QAM16, QAM64, QAM256} {
		n := m.BitsPerSubcarrier()
		count := map[complex128]int{}
		for v := 0; v < 1<<n; v++ {
			count[mapPoint(t, ConventionIEEE, m, bits.FromUint(uint64(v), n))]++
			count[mapPoint(t, ConventionPaper, m, bits.FromUint(uint64(v), n))]--
		}
		for pt, c := range count {
			if c != 0 {
				t.Fatalf("%v: point %v unbalanced (%d)", m, pt, c)
			}
		}
	}
}

// TestConventionInterleaveRoundTrip checks, over random symbols, that
// the transmit gather through a rate-1/2 placement table (whose mother
// block is the symbol's coded bits, none punctured) is undone by the
// DeinterleaveC oracle under both conventions.
func TestConventionInterleaveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		for _, conv := range []Convention{ConventionIEEE, ConventionPaper} {
			for _, m := range []Modulation{QAM16, QAM64, QAM256} {
				n := NumDataSubcarriers * m.BitsPerSubcarrier()
				data := bits.Random(lr, n)
				inter := make([]bits.Bit, n)
				for j, slot := range conv.CodedSlots(Mode{m, Rate12}) {
					inter[j] = data[slot]
				}
				back, err := conv.DeinterleaveC(m, inter)
				if err != nil {
					return false
				}
				if !bits.Equal(back, data) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestConventionSignificantOffsetsPinBothLabelings(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, conv := range []Convention{ConventionIEEE, ConventionPaper} {
		for _, m := range []Modulation{QAM16, QAM64, QAM256} {
			offsets, values := conv.SignificantOffsetsC(m)
			for trial := 0; trial < 32; trial++ {
				b := bits.Random(rng, m.BitsPerSubcarrier())
				for i, off := range offsets {
					b[off] = values[i]
				}
				p := mapPoint(t, conv, m, b)
				k := NormFactor(m)
				power := (real(p)*real(p) + imag(p)*imag(p)) / (k * k)
				if power < 1.99 || power > 2.01 {
					t.Fatalf("%v %v: pinned point power %g", conv, m, power)
				}
			}
		}
	}
}
