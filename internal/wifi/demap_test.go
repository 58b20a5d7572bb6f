package wifi

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sledzig/internal/bits"
)

var demapConventions = []Convention{ConventionIEEE, ConventionPaper}
var demapModulations = []Modulation{BPSK, QPSK, QAM16, QAM64, QAM256}

// TestDemapSymbolCIntoMatchesDemapSymbolC checks the table-driven hard
// demapper one point at a time against the per-point arithmetic it
// replaced, on noisy points, for every convention and modulation.
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
				if err := c.DemapAllCInto(dst, m, []complex128{p}); err != nil {
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
			var want []bits.Bit
			for i := range pts {
				pts[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				b, err := c.DemapSymbolC(m, pts[i])
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, b...)
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

// oraclePoints returns the points the constellation table is checked on
// for m: every ideal point; each axis's levels and decision boundaries,
// their neighbours at both widths, 0, -0, tiny and far values, each
// paired with itself and with a random coordinate on the other axis; and
// random points around the constellation.
func oraclePoints(rng *rand.Rand, m Modulation) []complex128 {
	k := NormFactor(m)
	top := 1<<axisBits(m) - 1
	inf := math.Inf(1)
	coords := []float64{0, math.Copysign(0, -1), 1e-17, -1e-17, 1e-40, -1e-40, 5, -5, 8, -8}
	for l := -top - 1; l <= top+1; l++ { // odd l: levels; even l: boundaries, or past the edge
		v := float64(l) * k
		v32 := float32(v)
		coords = append(coords, v, math.Nextafter(v, -inf), math.Nextafter(v, inf),
			float64(v32), float64(math.Nextafter32(v32, float32(-inf))), float64(math.Nextafter32(v32, float32(inf))))
	}
	var pts []complex128
	for _, v := range coords {
		r := coords[rng.Intn(len(coords))]
		pts = append(pts, complex(v, v), complex(v, r), complex(r, v))
	}
	pts = append(pts, pointTables[ConventionIEEE][m].points...)
	for range 2000 {
		pts = append(pts, complex(rng.NormFloat64()*0.8, rng.NormFloat64()*0.8))
	}
	return pts
}

// TestConstellationTableMatchesOracles checks every reader of the
// constellation table against the per-point arithmetic and point searches
// it replaced, under both conventions and every modulation: each label
// maps to the oracle's point; hard decisions at both widths and the
// nearest ideal point match the oracle's; LLRs equal the float32 search
// over every point, non-finite where it is; and the significant bits are
// the old builders', slice for slice.
func TestConstellationTableMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	nonFinite := []complex64{complex(nan, 0), complex(0.3, nan), complex(inf, 0), complex(-1, -inf), complex(nan, inf), complex(3e30, 0)}
	significant := [...]func(Modulation) ([]int, []bits.Bit){ConventionIEEE: ieeeSignificant, ConventionPaper: lteSignificant}
	for _, c := range demapConventions {
		for _, m := range demapModulations {
			n := m.BitsPerSubcarrier()
			labels := make([]bits.Bit, 0, n<<n)
			for v := 0; v < 1<<n; v++ {
				labels = append(labels, bits.FromUint(uint64(v), n)...)
			}
			mapped := make([]complex128, 1<<n)
			if err := c.MapAllCInto(m, labels, mapped); err != nil {
				t.Fatal(err)
			}
			for v, p := range mapped {
				if want, _ := c.MapSymbolC(m, labels[v*n:(v+1)*n]); p != want {
					t.Fatalf("%v %v: label %0*b maps to %v, oracle %v", c, m, n, v, p, want)
				}
			}

			pts := oraclePoints(rng, m)
			pts32 := make([]complex64, len(pts))
			for i, p := range pts {
				pts32[i] = complex64(p)
			}
			wide := make([]bits.Bit, len(pts)*n)
			narrow := make([]bits.Bit, len(pts)*n)
			if err := c.DemapAllCInto(wide, m, pts); err != nil {
				t.Fatal(err)
			}
			if err := c.DemapAll64Into(narrow, m, pts32); err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				want, _ := c.DemapSymbolC(m, p)
				if got := wide[i*n : (i+1)*n]; !bits.Equal(got, want) {
					t.Fatalf("%v %v point %v: hard %v, oracle %v", c, m, p, got, want)
				}
				want, _ = c.DemapSymbolC(m, complex128(pts32[i]))
				if got := narrow[i*n : (i+1)*n]; !bits.Equal(got, want) {
					t.Fatalf("%v %v narrow point %v: hard %v, oracle %v", c, m, pts32[i], got, want)
				}
				ideal, _ := c.MapSymbolC(m, want)
				if got := NearestIdealPoint(m, complex128(pts32[i])); got != ideal {
					t.Fatalf("%v %v point %v: nearest %v, oracle %v", c, m, pts32[i], got, ideal)
				}
			}

			pts32 = append(pts32, nonFinite...)
			got := make([]float64, len(pts32)*n)
			want := make([]float64, len(pts32)*n)
			if err := c.SoftDemapAll64Into(got, m, pts32); err != nil {
				t.Fatal(err)
			}
			if err := c.softDemapSearch64Into(want, m, pts32); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("%v %v point %v bit %d: LLR %g, oracle %g", c, m, pts32[i/n], i%n, got[i], want[i])
				}
			}
			for i := len(got) - len(nonFinite)*n; i < len(got); i++ {
				if !math.IsNaN(got[i]) && !math.IsInf(got[i], 0) {
					t.Fatalf("%v %v point %v bit %d: finite LLR %g", c, m, pts32[i/n], i%n, got[i])
				}
			}

			offsets, values := c.SignificantOffsetsC(m)
			wantOff, wantVal := significant[c](m)
			if !slices.Equal(offsets, wantOff) || !slices.Equal(values, wantVal) {
				t.Fatalf("%v %v: significant bits %v = %v, oracle %v = %v", c, m, offsets, values, wantOff, wantVal)
			}
		}
	}
}

// TestHardDecisionsOnHugeCoordinates: a coordinate of any magnitude,
// infinities included, decides like the outermost level of its sign, at
// both widths and in NearestIdealPoint; NaN decides like level +1. The
// reference decisions come from coordinates of ±10 and +1e-9, which the
// arithmetic handles exactly.
func TestHardDecisionsOnHugeCoordinates(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	coords := []float64{1e19, -1e19, 1e30, -1e30, inf, -inf, nan}
	ref := func(v float64) float64 {
		switch {
		case math.IsNaN(v):
			return 1e-9
		case v > 0:
			return 10
		}
		return -10
	}
	for _, c := range demapConventions {
		for _, m := range []Modulation{QPSK, QAM16, QAM64, QAM256} {
			n := m.BitsPerSubcarrier()
			var pts, refs []complex128
			for _, re := range coords {
				for _, im := range coords {
					pts = append(pts, complex(re, im))
					refs = append(refs, complex(ref(re), ref(im)))
				}
			}
			pts32 := make([]complex64, len(pts))
			for i, p := range pts {
				pts32[i] = complex64(p)
			}
			wide := make([]bits.Bit, len(pts)*n)
			narrow := make([]bits.Bit, len(pts)*n)
			want := make([]bits.Bit, len(pts)*n)
			if err := c.DemapAllCInto(wide, m, pts); err != nil {
				t.Fatal(err)
			}
			if err := c.DemapAll64Into(narrow, m, pts32); err != nil {
				t.Fatal(err)
			}
			if err := c.DemapAllCInto(want, m, refs); err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				w := want[i*n : (i+1)*n]
				if got := wide[i*n : (i+1)*n]; !bits.Equal(got, w) {
					t.Errorf("%v %v point %v: hard %v, want %v", c, m, p, got, w)
				}
				if got := narrow[i*n : (i+1)*n]; !bits.Equal(got, w) {
					t.Errorf("%v %v narrow point %v: hard %v, want %v", c, m, pts32[i], got, w)
				}
				ideal := NearestIdealPoint(m, refs[i])
				if got := NearestIdealPoint(m, p); got != ideal {
					t.Errorf("%v %v point %v: nearest %v, want %v", c, m, p, got, ideal)
				}
				if got := NearestIdealPoint(m, complex128(pts32[i])); got != ideal {
					t.Errorf("%v %v narrow point %v: nearest %v, want %v", c, m, pts32[i], got, ideal)
				}
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
