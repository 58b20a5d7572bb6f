package wifi

import (
	"math/rand"
	"testing"

	"sledzig/internal/bits"
)

var demapConventions = []Convention{ConventionIEEE, ConventionPaper}
var demapModulations = []Modulation{BPSK, QPSK, QAM16, QAM64, QAM256}

// TestDemapSymbolCIntoMatchesDemapSymbolC checks the table-driven hard
// demapper against the original on noisy points, for every convention and
// modulation.
func TestDemapSymbolCIntoMatchesDemapSymbolC(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range demapConventions {
		for _, m := range demapModulations {
			n := m.BitsPerSubcarrier()
			dst := make([]bits.Bit, n)
			for trial := 0; trial < 500; trial++ {
				p := complex(rng.NormFloat64(), rng.NormFloat64())
				want, err := c.DemapSymbolC(m, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.DemapSymbolCInto(dst, m, p); err != nil {
					t.Fatal(err)
				}
				if !bits.Equal(dst, want) {
					t.Fatalf("%v %v point %v: got %v want %v", c, m, p, dst, want)
				}
			}
		}
	}
}

// TestDemapAllCIntoMatchesDemapAllC covers the sequence form.
func TestDemapAllCIntoMatchesDemapAllC(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, c := range demapConventions {
		for _, m := range demapModulations {
			pts := make([]complex128, NumDataSubcarriers)
			for i := range pts {
				pts[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want, err := c.DemapAllC(m, pts)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]bits.Bit, len(pts)*m.BitsPerSubcarrier())
			if err := c.DemapAllCInto(dst, m, pts); err != nil {
				t.Fatal(err)
			}
			if !bits.Equal(dst, want) {
				t.Fatalf("%v %v: sequence demap differs", c, m)
			}
		}
	}
}

// TestDeinterleaveCIntoMatches checks the receive scatter through a
// rate-1/2 placement table against the DeinterleaveC oracle: with nothing
// punctured, the mother block is the deinterleaved symbol.
func TestDeinterleaveCIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, c := range demapConventions {
		for _, m := range demapModulations {
			nCBPS := NumDataSubcarriers * m.BitsPerSubcarrier()
			in := bits.Random(rng, nCBPS)
			want, err := c.DeinterleaveC(m, in)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int8, nCBPS)
			scatterBits(out, in, c.CodedSlots(Mode{m, Rate12}))
			for i, v := range signedMother(want, nil) {
				if out[i] != v {
					t.Fatalf("%v %v: mother slot %d = %d, want %d", c, m, i, out[i], v)
				}
			}
		}
	}
}

// TestHardDemapPathDoesNotAllocate verifies the per-symbol hard receive
// primitives are allocation-free once their tables are built.
func TestHardDemapPathDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := make([]complex128, NumDataSubcarriers)
	for i := range pts {
		pts[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, c := range demapConventions {
		for _, m := range demapModulations {
			mode := Mode{m, Rate34}
			demapped := make([]bits.Bit, mode.CodedBitsPerSymbol())
			mother := make([]int8, 2*mode.DataBitsPerSymbol())
			if err := c.DemapAllCInto(demapped, m, pts); err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(20, func() {
				if err := c.DemapAllCInto(demapped, m, pts); err != nil {
					t.Fatal(err)
				}
				scatterBits(mother, demapped, c.CodedSlots(mode))
			}); avg != 0 {
				t.Errorf("%v %v: demap+scatter allocates %.1f times per run, want 0", c, m, avg)
			}
		}
	}
}

// TestNearestIdealPointMatchesDemapRemap checks the EVM quantizer against
// the demap->remap round trip it replaces, under both conventions.
func TestNearestIdealPointMatchesDemapRemap(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, c := range demapConventions {
		for _, m := range demapModulations {
			for trial := 0; trial < 300; trial++ {
				p := complex(rng.NormFloat64(), rng.NormFloat64())
				b, err := c.DemapSymbolC(m, p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := c.MapSymbolC(m, b)
				if err != nil {
					t.Fatal(err)
				}
				if got := NearestIdealPoint(m, p); got != want {
					t.Fatalf("%v %v point %v: nearest %v, demap+remap %v", c, m, p, got, want)
				}
			}
		}
	}
}

// TestScramblerSequenceCacheMatchesLFSR checks the periodic-sequence fast
// path against stepping the LFSR bit by bit, over several periods and
// every seed.
func TestScramblerSequenceCacheMatchesLFSR(t *testing.T) {
	in := make([]bits.Bit, 3*scramblerPeriod+17)
	rng := rand.New(rand.NewSource(53))
	for i := range in {
		in[i] = bits.Bit(rng.Intn(2))
	}
	out := make([]bits.Bit, len(in))
	for seed := uint8(1); seed <= 0x7F; seed++ {
		s, err := NewScrambler(seed)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Scramble(in)
		if err := ScrambleWithSeedInto(out, in, seed); err != nil {
			t.Fatal(err)
		}
		if !bits.Equal(out, want) {
			t.Fatalf("seed %#x: periodic scramble differs from LFSR", seed)
		}
	}
}

// TestReceiveIntoMatchesReceive runs one frame through both entry points
// and demands identical results, then checks the second ReceiveInto on a
// warm result stays within the per-frame allocation budget.
func TestReceiveIntoMatchesReceive(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, soft := range []bool{false, true} {
		for _, mode := range []Mode{
			{Modulation: QAM16, CodeRate: Rate12},
			{Modulation: QAM64, CodeRate: Rate34},
			{Modulation: QAM256, CodeRate: Rate56},
		} {
			tx := Transmitter{Mode: mode}
			frame, err := tx.Frame(bits.RandomBytes(rng, 300))
			if err != nil {
				t.Fatal(err)
			}
			wave, err := frame.Waveform()
			if err != nil {
				t.Fatal(err)
			}
			rx := Receiver{Soft: soft}
			want, err := rx.Receive(wave)
			if err != nil {
				t.Fatal(err)
			}
			var res RxResult
			if err := rx.ReceiveInto(wave, &res); err != nil {
				t.Fatal(err)
			}
			if res.Mode != want.Mode || res.PSDULength != want.PSDULength {
				t.Fatalf("soft=%v %v: header mismatch", soft, mode)
			}
			if !bits.Equal(res.DataBits, want.DataBits) {
				t.Fatalf("soft=%v %v: DataBits differ", soft, mode)
			}
			if string(res.PSDU) != string(want.PSDU) {
				t.Fatalf("soft=%v %v: PSDU differs", soft, mode)
			}
			if len(res.DataPoints) != len(want.DataPoints) {
				t.Fatalf("soft=%v %v: symbol count differs", soft, mode)
			}
			for s := range res.DataPoints {
				for i := range res.DataPoints[s] {
					if res.DataPoints[s][i] != want.DataPoints[s][i] {
						t.Fatalf("soft=%v %v: DataPoints[%d][%d] differ", soft, mode, s, i)
					}
				}
			}
		}
	}
}
