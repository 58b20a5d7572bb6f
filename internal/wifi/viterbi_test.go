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
				got, err := ViterbiDecode(mother, erased, terminated)
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

// TestViterbiIntoReusesCapacityAndMatches checks the Into variants return
// identical bits while reusing the destination's backing array.
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
	want, err := ViterbiDecode(mother, erased, false)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]bits.Bit, 0, 4096)
	got, err := ViterbiDecodeInto(dst, mother, erased, false)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("ViterbiDecodeInto did not reuse the destination's backing array")
	}
	if !bits.Equal(got, want) {
		t.Error("ViterbiDecodeInto result differs from ViterbiDecode")
	}

	llrs := make([]float64, len(mother))
	for i, b := range mother {
		if erased[i] {
			continue
		}
		llrs[i] = 1 - 2*float64(b)
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
	coded := ConvolutionalEncode(in)
	llrs := make([]float64, len(coded))
	for i, b := range coded {
		llrs[i] = 1 - 2*float64(b)
	}
	dst := make([]bits.Bit, 0, len(in))
	// Warm the scratch pool.
	if _, err := ViterbiDecodeInto(dst, coded, nil, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ViterbiDecodeSoftInto(dst, llrs, false); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := ViterbiDecodeInto(dst, coded, nil, false); err != nil {
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

// FuzzDepunctureRoundTrip checks Depuncture exactly inverts Puncture at
// every rate, including streams that end mid-pattern.
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
		rng := rand.New(rand.NewSource(seed))
		coded := ConvolutionalEncode(bits.Random(rng, n))
		punctured, err := Puncture(coded, r)
		if err != nil {
			t.Fatal(err)
		}
		mother, erased, err := Depuncture(punctured, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(mother)%2 != 0 {
			t.Fatalf("mother length %d is odd", len(mother))
		}
		if len(mother) < len(coded) {
			t.Fatalf("mother length %d < coded length %d", len(mother), len(coded))
		}
		// Every non-erased slot must hold the transmitted bit, and the
		// erasure mask must mark exactly the punctured (and pad) slots.
		pat, err := puncturePattern(r)
		if err != nil {
			t.Fatal(err)
		}
		j := 0
		for i := range mother {
			kept := i < len(coded) && pat[i%len(pat)] && j < len(punctured)
			if kept {
				if erased[i] {
					t.Fatalf("slot %d kept but marked erased", i)
				}
				if mother[i] != punctured[j] {
					t.Fatalf("slot %d: got %d want %d", i, mother[i], punctured[j])
				}
				j++
			} else if !erased[i] {
				t.Fatalf("slot %d punctured but not marked erased", i)
			}
		}
		if j != len(punctured) {
			t.Fatalf("consumed %d of %d punctured bits", j, len(punctured))
		}
		// The decoder must recover the exact input on a clean channel.
		decoded, err := ViterbiDecode(mother, erased, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(decoded) < n {
			t.Fatalf("decoded %d bits, want at least %d", len(decoded), n)
		}
	})
}

// TestDepunctureIntoMatches checks the pooled variant against Depuncture.
func TestDepunctureIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var data []bits.Bit
	var erased []bool
	for _, r := range identityRates {
		for trial := 0; trial < 20; trial++ {
			rx := bits.Random(rng, 1+rng.Intn(700))
			wantData, wantErased, err := Depuncture(rx, r)
			if err != nil {
				t.Fatal(err)
			}
			data, erased, err = DepunctureInto(data, erased, rx, r)
			if err != nil {
				t.Fatal(err)
			}
			if !bits.Equal(data, wantData) {
				t.Fatalf("rate %v: DepunctureInto data differs", r)
			}
			if len(erased) != len(wantErased) {
				t.Fatalf("rate %v: erased length %d != %d", r, len(erased), len(wantErased))
			}
			for i := range erased {
				if erased[i] != wantErased[i] {
					t.Fatalf("rate %v: erased[%d] differs", r, i)
				}
			}
		}
	}
}
