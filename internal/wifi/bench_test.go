package wifi

import (
	"math/rand"
	"testing"

	"sledzig/internal/bits"
)

func BenchmarkScramble(b *testing.B) {
	data := bits.Random(rand.New(rand.NewSource(1)), 12000)
	b.SetBytes(12000 / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScrambleWithSeed(data, DefaultScramblerSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvolutionalEncode(b *testing.B) {
	data := bits.Random(rand.New(rand.NewSource(1)), 12000)
	b.SetBytes(12000 / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvolutionalEncode(data)
	}
}

func BenchmarkViterbiSoft(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := bits.Random(rng, 1000)
	coded := ConvolutionalEncode(data)
	llrs := make([]float64, len(coded))
	for i, bit := range coded {
		if bit == 0 {
			llrs[i] = 4
		} else {
			llrs[i] = -4
		}
	}
	b.SetBytes(1000 / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ViterbiDecodeSoftInto(nil, llrs, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOFDMSymbol(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]complex128, NumDataSubcarriers)
	for i := range pts {
		pts[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AssembleSymbol(pts, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoftDemapQAM256 times the receiver's soft demapper on one
// symbol of narrow QAM-256 points.
func BenchmarkSoftDemapQAM256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]complex64, NumDataSubcarriers)
	for i := range pts {
		pts[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	llrs := make([]float64, len(pts)*QAM256.BitsPerSubcarrier())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ConventionIEEE.SoftDemapAll64Into(llrs, QAM256, pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbiACSReferenceHard pins the scalar reference ACS kernel —
// the denominator of the word kernel's speedup and the bit-exact oracle
// the identity tests decode against. Also 0 allocs/op.
func BenchmarkViterbiACSReferenceHard(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := bits.Random(rng, 1000)
	mother := signedMother(ConvolutionalEncode(data), nil)
	dst := make([]bits.Bit, 0, len(data))
	var s viterbiScratch
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(&s, dst, mother, false, refHardACS); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbiACSReferenceSoft is the soft-metric counterpart of
// BenchmarkViterbiACSReferenceHard.
func BenchmarkViterbiACSReferenceSoft(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := bits.Random(rng, 1000)
	coded := ConvolutionalEncode(data)
	llrs := make([]float64, len(coded))
	for i, c := range coded {
		if c == 1 {
			llrs[i] = -2.0 + rng.NormFloat64()*0.3
		} else {
			llrs[i] = 2.0 + rng.NormFloat64()*0.3
		}
	}
	dst := make([]bits.Bit, 0, len(data))
	var s viterbiScratch
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(&s, dst, llrs, false, refSoftACS); err != nil {
			b.Fatal(err)
		}
	}
}
