package wifi

import (
	"fmt"
	"math/rand"
	"testing"

	"sledzig/internal/bits"
)

// The per-bit puncture, depuncture and interleave passes the placement
// table replaced, kept as the oracles the table, the transmit gather and
// the receive scatters are tested against (and as the wide oracle's
// deinterleave → depuncture chain).

// puncturePattern returns the keep-mask over one puncturing period of
// mother-coded bits for rate r. Rate 1/2 keeps everything. The returned
// slice is shared; callers must not modify it.
func puncturePattern(r CodeRate) ([]bool, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("wifi: unsupported code rate %v", r)
	}
	return puncturePatterns[r], nil
}

// motherLen returns how many mother-stream slots a received stream of n
// bits punctured by pat spans: the index just past the n-th kept pattern
// position.
func motherLen(pat []bool, n int) int {
	mother := 0
	for kept := 0; kept < n; mother++ {
		if pat[mother%len(pat)] {
			kept++
		}
	}
	return mother
}

// Puncture removes the coded bits a rate-r puncturer drops from the
// rate-1/2 stream coded.
func Puncture(coded []bits.Bit, r CodeRate) ([]bits.Bit, error) {
	pat, err := puncturePattern(r)
	if err != nil {
		return nil, err
	}
	out := make([]bits.Bit, 0, len(coded)*r.Numerator()/r.Denominator()+2)
	for i, b := range coded {
		if pat[i%len(pat)] {
			out = append(out, b)
		}
	}
	return out, nil
}

// EncodeAndPuncture is the full transmit-side coder: rate-1/2 encode then
// puncture to rate r.
func EncodeAndPuncture(in []bits.Bit, r CodeRate) ([]bits.Bit, error) {
	return Puncture(ConvolutionalEncode(in), r)
}

// MotherIndices returns, for a rate-r punctured stream of length n, the
// index in the rate-1/2 mother stream of each transmitted bit.
func MotherIndices(n int, r CodeRate) ([]int, error) {
	pat, err := puncturePattern(r)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, n)
	for mother := 0; len(out) < n; mother++ {
		if pat[mother%len(pat)] {
			out = append(out, mother)
		}
	}
	return out, nil
}

// Depuncture expands a received rate-r stream back to mother-code length,
// marking punctured positions as erasures. Partial trailing periods are
// allowed, and a dangling half-step is padded with an erasure so the
// decoder always consumes whole pairs.
func Depuncture(rx []bits.Bit, r CodeRate) (data []bits.Bit, erased []bool, err error) {
	pat, err := puncturePattern(r)
	if err != nil {
		return nil, nil, err
	}
	n := motherLen(pat, len(rx))
	padded := n + n%2
	data = make([]bits.Bit, padded)
	erased = make([]bool, padded)
	j := 0
	for i := range data {
		if j < len(rx) && pat[i%len(pat)] {
			data[i] = rx[j]
			j++
		} else {
			erased[i] = true
		}
	}
	return data, erased, nil
}

// DepunctureFloatsInto expands a rate-r LLR stream to mother-code length
// into dst (reusing its capacity), inserting zero LLRs (erasures) at
// punctured positions and padding a dangling half-step. It returns the
// resized slice.
func DepunctureFloatsInto(dst []float64, rx []float64, r CodeRate) ([]float64, error) {
	pat, err := puncturePattern(r)
	if err != nil {
		return dst, err
	}
	n := motherLen(pat, len(rx))
	dst = grow(dst, n+n%2)
	j := 0
	for i := range dst {
		if j < len(rx) && pat[i%len(pat)] {
			dst[i] = rx[j]
			j++
		} else {
			dst[i] = 0
		}
	}
	return dst, nil
}

// InterleaveAllC applies the per-symbol interleaver across a multi-symbol
// stream under the convention.
func (c Convention) InterleaveAllC(m Modulation, in []bits.Bit) ([]bits.Bit, error) {
	nCBPS := NumDataSubcarriers * m.BitsPerSubcarrier()
	if len(in)%nCBPS != 0 {
		return nil, fmt.Errorf("wifi: coded stream length %d not a multiple of N_CBPS %d", len(in), nCBPS)
	}
	out := make([]bits.Bit, len(in))
	for off := 0; off < len(in); off += nCBPS {
		for k, b := range in[off : off+nCBPS] {
			out[off+c.InterleaveIndexC(m, k)] = b
		}
	}
	return out, nil
}

// DeinterleaveCInto inverts the per-symbol interleaver into out (length
// N_CBPS). in and out must not alias.
func (c Convention) DeinterleaveCInto(out, in []bits.Bit, m Modulation) error {
	nCBPS := NumDataSubcarriers * m.BitsPerSubcarrier()
	if len(in) != nCBPS || len(out) != nCBPS {
		return fmt.Errorf("wifi: deinterleave lengths %d, %d != N_CBPS %d for %v", len(in), len(out), nCBPS, m)
	}
	for j, b := range in {
		out[c.DeinterleaveIndexC(m, j)] = b
	}
	return nil
}

// DeinterleaveFloatsInto inverts the per-symbol interleaver on an LLR
// block, writing into out (length N_CBPS).
func (c Convention) DeinterleaveFloatsInto(out, in []float64, m Modulation) error {
	nCBPS := NumDataSubcarriers * m.BitsPerSubcarrier()
	if len(in) != nCBPS || len(out) != nCBPS {
		return fmt.Errorf("wifi: deinterleave lengths %d, %d != N_CBPS %d for %v", len(in), len(out), nCBPS, m)
	}
	for j, v := range in {
		out[c.DeinterleaveIndexC(m, j)] = v
	}
	return nil
}

// signedMother converts a depunctured stream and its erasure mask (nil:
// none) to ViterbiDecodeInto's signed form.
func signedMother(data []bits.Bit, erased []bool) []int8 {
	out := make([]int8, len(data))
	for i, b := range data {
		if erased == nil || !erased[i] {
			out[i] = 1 - 2*int8(b&1)
		}
	}
	return out
}

// forEachConventionMode runs fn for both conventions and every mode
// Mode.Validate accepts.
func forEachConventionMode(fn func(c Convention, mode Mode)) {
	for _, c := range []Convention{ConventionIEEE, ConventionPaper} {
		for _, mode := range allModes() {
			fn(c, mode)
		}
	}
}

// TestCodedSlotsMatchPerBitComposition checks the placement table against
// the per-bit composition it replaced, MotherIndices ∘ DeinterleaveIndexC,
// for both conventions and all 20 modes; and that it is injective, with
// the punctured slots of each period the only ones it never names.
func TestCodedSlotsMatchPerBitComposition(t *testing.T) {
	forEachConventionMode(func(c Convention, mode Mode) {
		slots := c.CodedSlots(mode)
		nCBPS := mode.CodedBitsPerSymbol()
		mother, err := MotherIndices(nCBPS, mode.CodeRate)
		if err != nil {
			t.Fatal(err)
		}
		if len(slots) != nCBPS || cap(slots) != nCBPS {
			t.Fatalf("%v %v: table len %d cap %d, want %d", c, mode, len(slots), cap(slots), nCBPS)
		}
		block := 2 * mode.DataBitsPerSymbol()
		used := make([]bool, block)
		for j, slot := range slots {
			if want := mother[c.DeinterleaveIndexC(mode.Modulation, j)]; int(slot) != want {
				t.Fatalf("%v %v: slot[%d] = %d, want %d", c, mode, j, slot, want)
			}
			if used[slot] {
				t.Fatalf("%v %v: slot %d named twice", c, mode, slot)
			}
			used[slot] = true
		}
		pat, _ := puncturePattern(mode.CodeRate)
		for i, u := range used {
			if u != pat[i%len(pat)] {
				t.Fatalf("%v %v: mother slot %d used=%v, puncture pattern keeps=%v", c, mode, i, u, pat[i%len(pat)])
			}
		}
	})
	if slots := ConventionIEEE.CodedSlots(Mode{}); slots != nil {
		t.Fatal("CodedSlots of an invalid mode is not nil")
	}
}

// TestGatherMatchesPunctureInterleave checks the transmit gather against
// EncodeAndPuncture followed by InterleaveAllC on random scrambled
// streams, for every mode and convention.
func TestGatherMatchesPunctureInterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	forEachConventionMode(func(c Convention, mode Mode) {
		nSym := 1 + rng.Intn(3)
		f, x := randomFrame(t, rng, c, mode, nSym)
		_, inter, pts, err := renderFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		coded, err := EncodeAndPuncture(x, mode.CodeRate)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.InterleaveAllC(mode.Modulation, coded)
		if err != nil {
			t.Fatal(err)
		}
		if !bits.Equal(inter, want) {
			t.Fatalf("%v %v, %d symbols: gathered bits differ from puncture + interleave", c, mode, nSym)
		}
		wantPts := make([]complex128, len(pts))
		if err := c.MapAllCInto(mode.Modulation, want, wantPts); err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			if pts[i] != wantPts[i] {
				t.Fatalf("%v %v: point %d = %v, want %v", c, mode, i, pts[i], wantPts[i])
			}
		}
	})
}

// TestScatterDecodeMatchesDepuncture checks both receive chains' scatter
// + Viterbi against the deinterleave → depuncture → seed-decoder chain it
// replaced, on random noisy demapped bits and LLRs, for every mode and
// convention.
func TestScatterDecodeMatchesDepuncture(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	forEachConventionMode(func(c Convention, mode Mode) {
		slots := c.CodedSlots(mode)
		nCBPS, block := len(slots), 2*mode.DataBitsPerSymbol()
		nSym := 1 + rng.Intn(3)
		demapped := bits.Random(rng, nSym*nCBPS)
		llrs := make([]float64, len(demapped))
		for i := range llrs {
			llrs[i] = rng.NormFloat64()
		}

		hard := make([]int8, nSym*block)
		soft := make([]float64, nSym*block)
		deinter := make([]bits.Bit, len(demapped))
		deinterLLRs := make([]float64, len(llrs))
		for sym := 0; sym < nSym; sym++ {
			in, out := sym*nCBPS, sym*block
			scatterBits(hard[out:out+block], demapped[in:in+nCBPS], slots)
			scatterLLRs(soft[out:out+block], llrs[in:in+nCBPS], slots)
			if err := c.DeinterleaveCInto(deinter[in:in+nCBPS], demapped[in:in+nCBPS], mode.Modulation); err != nil {
				t.Fatal(err)
			}
			if err := c.DeinterleaveFloatsInto(deinterLLRs[in:in+nCBPS], llrs[in:in+nCBPS], mode.Modulation); err != nil {
				t.Fatal(err)
			}
		}

		mother, erased, err := Depuncture(deinter, mode.CodeRate)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refViterbiDecode(mother, erased, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ViterbiDecodeInto(nil, hard, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bits.Equal(got, want) {
			t.Fatalf("hard %v %v, %d symbols: scatter decode differs from depuncture decode", c, mode, nSym)
		}

		motherLLRs, err := DepunctureFloatsInto(nil, deinterLLRs, mode.CodeRate)
		if err != nil {
			t.Fatal(err)
		}
		want, err = refViterbiDecodeSoft(motherLLRs, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err = ViterbiDecodeSoftInto(nil, soft, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bits.Equal(got, want) {
			t.Fatalf("soft %v %v, %d symbols: scatter decode differs from depuncture decode", c, mode, nSym)
		}
	})
}
