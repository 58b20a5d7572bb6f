package wifi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sledzig/internal/bits"
)

// refViterbiDecode is the seed repository's hard-decision decoder
// (source-state iteration, struct-matrix survivors), kept verbatim as the
// byte-identity reference for the table-driven rewrite.
func refViterbiDecode(coded []bits.Bit, erased []bool, terminated bool) ([]bits.Bit, error) {
	if len(coded)%2 != 0 {
		return nil, fmt.Errorf("wifi: coded length %d is odd", len(coded))
	}
	if erased != nil && len(erased) != len(coded) {
		return nil, fmt.Errorf("wifi: erasure mask length %d != coded length %d", len(erased), len(coded))
	}
	steps := len(coded) / 2
	if steps == 0 {
		return nil, nil
	}

	const numStates = 64
	const inf = int32(1) << 30

	var outBits [numStates][2][2]bits.Bit
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			window := (uint32(s)<<1 | uint32(in)) & 0x7F
			y0, y1 := EncodeStep(window)
			outBits[s][in] = [2]bits.Bit{y0, y1}
		}
	}

	metric := make([]int32, numStates)
	next := make([]int32, numStates)
	for i := range metric {
		metric[i] = inf
	}
	metric[0] = 0

	type survivor struct {
		prev uint8
		in   uint8
	}
	surv := make([][numStates]survivor, steps)

	for t := 0; t < steps; t++ {
		for i := range next {
			next[i] = inf
		}
		r0, r1 := coded[2*t]&1, coded[2*t+1]&1
		e0, e1 := false, false
		if erased != nil {
			e0, e1 = erased[2*t], erased[2*t+1]
		}
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if m >= inf {
				continue
			}
			for in := 0; in < 2; in++ {
				var cost int32
				ob := outBits[s][in]
				if !e0 && ob[0] != r0 {
					cost++
				}
				if !e1 && ob[1] != r1 {
					cost++
				}
				ns := ((s << 1) | in) & 0x3F
				if nm := m + cost; nm < next[ns] {
					next[ns] = nm
					surv[t][ns] = survivor{prev: uint8(s), in: uint8(in)}
				}
			}
		}
		metric, next = next, metric
	}

	best := 0
	if !terminated {
		for s := 1; s < numStates; s++ {
			if metric[s] < metric[best] {
				best = s
			}
		}
	}
	decoded := make([]bits.Bit, steps)
	state := uint8(best)
	for t := steps - 1; t >= 0; t-- {
		sv := surv[t][state]
		decoded[t] = bits.Bit(sv.in)
		state = sv.prev
	}
	return decoded, nil
}

// refViterbiDecodeSoft is the seed repository's soft decoder, kept verbatim
// as the byte-identity reference.
func refViterbiDecodeSoft(llrs []float64, terminated bool) ([]bits.Bit, error) {
	if len(llrs)%2 != 0 {
		return nil, fmt.Errorf("wifi: LLR stream length %d is odd", len(llrs))
	}
	steps := len(llrs) / 2
	if steps == 0 {
		return nil, nil
	}
	const numStates = 64
	inf := math.Inf(1)

	var outBits [numStates][2][2]bits.Bit
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			w := (uint32(s)<<1 | uint32(in)) & 0x7F
			y0, y1 := EncodeStep(w)
			outBits[s][in] = [2]bits.Bit{y0, y1}
		}
	}

	metric := make([]float64, numStates)
	next := make([]float64, numStates)
	for i := range metric {
		metric[i] = inf
	}
	metric[0] = 0

	type survivor struct {
		prev uint8
		in   uint8
	}
	surv := make([][numStates]survivor, steps)

	for t := 0; t < steps; t++ {
		for i := range next {
			next[i] = inf
		}
		l0, l1 := llrs[2*t], llrs[2*t+1]
		for s := 0; s < numStates; s++ {
			m := metric[s]
			if math.IsInf(m, 1) {
				continue
			}
			for in := 0; in < 2; in++ {
				cost := m
				ob := outBits[s][in]
				if ob[0] == 1 {
					cost += l0
				} else {
					cost -= l0
				}
				if ob[1] == 1 {
					cost += l1
				} else {
					cost -= l1
				}
				ns := ((s << 1) | in) & 0x3F
				if cost < next[ns] {
					next[ns] = cost
					surv[t][ns] = survivor{prev: uint8(s), in: uint8(in)}
				}
			}
		}
		metric, next = next, metric
	}

	best := 0
	if !terminated {
		for s := 1; s < numStates; s++ {
			if metric[s] < metric[best] {
				best = s
			}
		}
	}
	decoded := make([]bits.Bit, steps)
	state := uint8(best)
	for t := steps - 1; t >= 0; t-- {
		sv := surv[t][state]
		decoded[t] = bits.Bit(sv.in)
		state = sv.prev
	}
	return decoded, nil
}

var identityRates = []CodeRate{Rate12, Rate23, Rate34, Rate56}

// TestViterbiHardMatchesSeedDecoder drives both decoders over noisy
// punctured streams of every rate and demands bit-exact agreement,
// terminated and not.
func TestViterbiHardMatchesSeedDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, r := range identityRates {
		for _, terminated := range []bool{false, true} {
			for trial := 0; trial < 25; trial++ {
				n := 1 + rng.Intn(300)
				in := bits.Random(rng, n)
				if terminated {
					// Zero tail drives the encoder back to state 0.
					in = append(in[:max(0, n-6)], 0, 0, 0, 0, 0, 0)
				}
				tx, err := EncodeAndPuncture(in, r)
				if err != nil {
					t.Fatal(err)
				}
				for i := range tx {
					if rng.Float64() < 0.03 {
						tx[i] ^= 1
					}
				}
				mother, erased, err := Depuncture(tx, r)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refViterbiDecode(mother, erased, terminated)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ViterbiDecodeInto(nil, signedMother(mother, erased), terminated)
				if err != nil {
					t.Fatal(err)
				}
				if !bits.Equal(got, want) {
					t.Fatalf("rate %v terminated=%v trial %d: decoders disagree", r, terminated, trial)
				}
			}
		}
	}
}

// TestViterbiSoftMatchesSeedDecoder feeds random LLR streams (with zero
// erasures mixed in) to both soft decoders.
func TestViterbiSoftMatchesSeedDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		steps := 1 + rng.Intn(400)
		llrs := make([]float64, 2*steps)
		for i := range llrs {
			switch rng.Intn(10) {
			case 0:
				llrs[i] = 0 // erasure
			default:
				llrs[i] = rng.NormFloat64()
			}
		}
		terminated := trial%2 == 0
		want, err := refViterbiDecodeSoft(llrs, terminated)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ViterbiDecodeSoftInto(nil, llrs, terminated)
		if err != nil {
			t.Fatal(err)
		}
		if !bits.Equal(got, want) {
			t.Fatalf("trial %d (terminated=%v): soft decoders disagree", trial, terminated)
		}
	}
}

// TestViterbiIntoReusesCapacityAndMatches checks the Into decoders return
// the same bits into a reused destination as into a fresh one, reusing
// its backing array.
func TestViterbiIntoReusesCapacityAndMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := bits.Random(rng, 250)
	tx, err := EncodeAndPuncture(in, Rate34)
	if err != nil {
		t.Fatal(err)
	}
	mother, erased, err := Depuncture(tx, Rate34)
	if err != nil {
		t.Fatal(err)
	}
	signed := signedMother(mother, erased)
	want, err := ViterbiDecodeInto(nil, signed, false)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]bits.Bit, 0, 4096)
	got, err := ViterbiDecodeInto(dst, signed, false)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("ViterbiDecodeInto did not reuse the destination's backing array")
	}
	if !bits.Equal(got, want) {
		t.Error("ViterbiDecodeInto into a reused destination differs from a fresh decode")
	}

	llrs := make([]float64, len(signed))
	for i, v := range signed {
		llrs[i] = float64(v)
	}
	wantSoft, err := ViterbiDecodeSoftInto(nil, llrs, false)
	if err != nil {
		t.Fatal(err)
	}
	gotSoft, err := ViterbiDecodeSoftInto(dst[:0], llrs, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(gotSoft, wantSoft) {
		t.Error("ViterbiDecodeSoftInto into a reused destination differs from a fresh decode")
	}
}

// TestViterbiIntoDoesNotAllocate verifies the pooled decoders are
// allocation-free once the pool and destination are warm.
func TestViterbiIntoDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := bits.Random(rng, 500)
	coded := signedMother(ConvolutionalEncode(in), nil)
	llrs := make([]float64, len(coded))
	for i, v := range coded {
		llrs[i] = float64(v)
	}
	dst := make([]bits.Bit, 0, len(in))
	// Warm the scratch pool.
	if _, err := ViterbiDecodeInto(dst, coded, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ViterbiDecodeSoftInto(dst, llrs, false); err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skip("viterbiPool backs the standalone decoders, and sync.Pool drops Puts under -race")
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := ViterbiDecodeInto(dst, coded, false); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("ViterbiDecodeInto allocates %.1f times per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := ViterbiDecodeSoftInto(dst, llrs, false); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("ViterbiDecodeSoftInto allocates %.1f times per run, want 0", avg)
	}
}

// FuzzDepunctureRoundTrip checks the receive scatter exactly inverts
// the transmit gather at every rate, for random modes and symbol counts:
// each kept mother slot comes back as its transmitted bit, each punctured
// one as an erasure, and a clean stream decodes to the encoder input.
func FuzzDepunctureRoundTrip(f *testing.F) {
	f.Add(int64(1), 10, 0)
	f.Add(int64(2), 123, 1)
	f.Add(int64(3), 1, 2)
	f.Add(int64(4), 997, 3)
	f.Fuzz(func(t *testing.T, seed int64, n int, rateIdx int) {
		if n < 1 || n > 5000 {
			t.Skip()
		}
		r := identityRates[((rateIdx%len(identityRates))+len(identityRates))%len(identityRates)]
		mode := Mode{Modulation(1 + n%5), r}
		nSym := 1 + n%4
		conv := Convention(n / 5 % 2)
		rng := rand.New(rand.NewSource(seed))
		fr, x := randomFrame(t, rng, conv, mode, nSym)
		sent, inter, _, err := renderFrame(fr)
		if err != nil {
			t.Fatal(err)
		}
		slots := conv.CodedSlots(mode)
		block := 2 * mode.DataBitsPerSymbol()
		mother := make([]int8, nSym*block)
		for sym := 0; sym < nSym; sym++ {
			scatterBits(mother[sym*block:(sym+1)*block], inter[sym*len(slots):(sym+1)*len(slots)], slots)
		}
		pat, err := puncturePattern(r)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range mother {
			switch {
			case !pat[i%len(pat)]:
				if v != 0 {
					t.Fatalf("%v %v: punctured slot %d = %d, want an erasure", conv, mode, i, v)
				}
			case v != 1-2*int8(sent[i]):
				t.Fatalf("%v %v: slot %d = %d, transmitted bit %d", conv, mode, i, v, sent[i])
			}
		}
		decoded, err := ViterbiDecodeInto(nil, mother, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bits.Equal(decoded, x) {
			t.Fatalf("%v %v: clean stream did not decode to the encoder input", conv, mode)
		}
	})
}

// TestDepunctureIntoMatches checks the hard scatter builds the signed
// mother stream the deinterleave → depuncture passes built, for every
// mode and convention over multi-symbol streams.
func TestDepunctureIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	forEachConventionMode(func(c Convention, mode Mode) {
		slots := c.CodedSlots(mode)
		nCBPS, block := len(slots), 2*mode.DataBitsPerSymbol()
		nSym := 1 + rng.Intn(4)
		rx := bits.Random(rng, nSym*nCBPS)
		got := make([]int8, nSym*block)
		deinter := make([]bits.Bit, len(rx))
		for sym := 0; sym < nSym; sym++ {
			scatterBits(got[sym*block:(sym+1)*block], rx[sym*nCBPS:(sym+1)*nCBPS], slots)
			if err := c.DeinterleaveCInto(deinter[sym*nCBPS:(sym+1)*nCBPS], rx[sym*nCBPS:(sym+1)*nCBPS], mode.Modulation); err != nil {
				t.Fatal(err)
			}
		}
		data, erased, err := Depuncture(deinter, mode.CodeRate)
		if err != nil {
			t.Fatal(err)
		}
		want := signedMother(data, erased)
		if len(got) != len(want) {
			t.Fatalf("%v %v: mother length %d, depuncture %d", c, mode, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v %v: mother slot %d = %d, want %d", c, mode, i, got[i], want[i])
			}
		}
	})
}
