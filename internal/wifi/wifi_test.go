package wifi

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sledzig/internal/bits"
)

func TestScramblerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed uint8) bool {
		seed = seed%0x7F + 1
		data := bits.Random(rng, 403)
		s1, err := ScrambleWithSeed(data, seed)
		if err != nil {
			return false
		}
		s2, err := ScrambleWithSeed(s1, seed)
		if err != nil {
			return false
		}
		return bits.Equal(data, s2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScramblerPeriod127(t *testing.T) {
	s, err := NewScrambler(DefaultScramblerSeed)
	if err != nil {
		t.Fatal(err)
	}
	seq := s.Sequence(254)
	if !bits.Equal(seq[:127], seq[127:]) {
		t.Fatal("scrambler sequence does not repeat with period 127")
	}
	// Maximal-length: all 127 nonzero states appear, so the sequence has 64
	// ones and 63 zeros.
	ones := 0
	for _, b := range seq[:127] {
		ones += int(b)
	}
	if ones != 64 {
		t.Fatalf("scrambler period has %d ones, want 64", ones)
	}
}

func TestScramblerRejectsBadSeed(t *testing.T) {
	for _, seed := range []uint8{0, 0x80, 0xFF} {
		if _, err := NewScrambler(seed); err == nil {
			t.Errorf("NewScrambler(%#x) accepted invalid seed", seed)
		}
	}
}

// 802.11-2012 17.3.5.5: with the all-ones initial state the scrambler's
// 127-bit sequence begins 00001110 11110010 11001001.
func TestScramblerAllOnesSequence(t *testing.T) {
	s, err := NewScrambler(0x7F)
	if err != nil {
		t.Fatal(err)
	}
	want := []bits.Bit{
		0, 0, 0, 0, 1, 1, 1, 0,
		1, 1, 1, 1, 0, 0, 1, 0,
		1, 1, 0, 0, 1, 0, 0, 1,
	}
	got := s.Sequence(len(want))
	if !bits.Equal(got, want) {
		t.Fatalf("scrambler sequence mismatch:\n got %s\nwant %s", bits.String(got), bits.String(want))
	}
}

func TestConvolutionalKnownVector(t *testing.T) {
	// The all-zeros input yields all-zeros output; an impulse yields the
	// generator taps read off over the following six steps.
	imp := make([]bits.Bit, 8)
	imp[0] = 1
	coded := ConvolutionalEncode(imp)
	// Step n sees window with the 1 at delay n-1.
	wantG0 := []bits.Bit{1, 0, 1, 1, 0, 1, 1, 0} // taps {0,2,3,5,6}
	wantG1 := []bits.Bit{1, 1, 1, 1, 0, 0, 1, 0} // taps {0,1,2,3,6}
	for n := 0; n < 8; n++ {
		if coded[2*n] != wantG0[n] || coded[2*n+1] != wantG1[n] {
			t.Fatalf("impulse response step %d = (%d,%d), want (%d,%d)",
				n, coded[2*n], coded[2*n+1], wantG0[n], wantG1[n])
		}
	}
}

func TestViterbiRoundTripNoErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, r := range []CodeRate{Rate12, Rate23, Rate34, Rate56} {
		// Length divisible by every puncturing period's input count.
		data := bits.Random(rng, 120)
		// Terminate with 6 zeros.
		data = append(data, make([]bits.Bit, 6)...)
		coded, err := EncodeAndPuncture(data, r)
		if err != nil {
			t.Fatal(err)
		}
		mother, erased, err := Depuncture(coded, r)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := ViterbiDecodeInto(nil, signedMother(mother, erased), true)
		if err != nil {
			t.Fatal(err)
		}
		if !bits.Equal(decoded, data) {
			t.Fatalf("rate %v: Viterbi round trip failed", r)
		}
	}
}

func TestViterbiCorrectsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := bits.Random(rng, 200)
	data = append(data, make([]bits.Bit, 6)...)
	coded := ConvolutionalEncode(data)
	// Flip isolated bits, spaced beyond the constraint length's reach.
	for _, pos := range []int{10, 60, 111, 200, 333} {
		coded[pos] ^= 1
	}
	decoded, err := ViterbiDecodeInto(nil, signedMother(coded, nil), true)
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(decoded, data) {
		t.Fatal("Viterbi failed to correct isolated bit errors")
	}
}

func TestViterbiPropertyRandomNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		data := bits.Random(lr, 96)
		data = append(data, make([]bits.Bit, 6)...)
		coded := ConvolutionalEncode(data)
		// 3 random isolated flips at least 14 positions apart.
		positions := []int{20 + lr.Intn(10), 80 + lr.Intn(10), 150 + lr.Intn(10)}
		for _, p := range positions {
			coded[p] ^= 1
		}
		decoded, err := ViterbiDecodeInto(nil, signedMother(coded, nil), true)
		if err != nil {
			return false
		}
		return bits.Equal(decoded, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestPunctureDepunctureShape checks every placement table carries its
// rate's share of the mother code (in input bits become out coded bits)
// and names only slots inside its symbol's 2·N_DBPS-bit block.
func TestPunctureDepunctureShape(t *testing.T) {
	for _, tc := range []struct {
		r       CodeRate
		in, out int
	}{
		{Rate12, 48, 96},
		{Rate23, 48, 72},
		{Rate34, 48, 64},
		{Rate56, 50, 60},
	} {
		for _, c := range []Convention{ConventionIEEE, ConventionPaper} {
			for m := BPSK; m <= QAM256; m++ {
				mode := Mode{m, tc.r}
				slots := c.CodedSlots(mode)
				if len(slots)*tc.in != mode.DataBitsPerSymbol()*tc.out {
					t.Errorf("%v %v: %d coded bits per %d input bits, want %d per %d",
						c, mode, len(slots), mode.DataBitsPerSymbol(), tc.out, tc.in)
				}
				for j, slot := range slots {
					if int(slot) >= 2*mode.DataBitsPerSymbol() {
						t.Fatalf("%v %v: slot[%d] = %d outside the mother block", c, mode, j, slot)
					}
				}
			}
		}
	}
}

// TestMotherIndices checks the table builder's puncture half: with the
// identity interleaver, rate 3/4 keeps mother slots 0, 1, 2, 5, 6, 7.
func TestMotherIndices(t *testing.T) {
	idx := make([]uint16, 6)
	BuildCodedSlots(idx, Rate34, func(j int) int { return j })
	want := []uint16{0, 1, 2, 5, 6, 7}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("BuildCodedSlots(3/4, identity) = %v, want %v", idx, want)
		}
	}
}

func TestInterleaverBijection(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64, QAM256} {
		n := NumDataSubcarriers * m.BitsPerSubcarrier()
		seen := make([]bool, n)
		for k := 0; k < n; k++ {
			j := InterleaveIndex(m, k)
			if j < 0 || j >= n {
				t.Fatalf("%v: InterleaveIndex(%d) = %d out of range", m, k, j)
			}
			if seen[j] {
				t.Fatalf("%v: InterleaveIndex not injective at %d", m, k)
			}
			seen[j] = true
			if back := DeinterleaveIndex(m, j); back != k {
				t.Fatalf("%v: DeinterleaveIndex(%d) = %d, want %d", m, j, back, k)
			}
		}
	}
}

// randomFrame returns an nSym-symbol frame whose encoder input is random,
// with that input at one bit per element.
func randomFrame(t testing.TB, rng *rand.Rand, conv Convention, mode Mode, nSym int) (*Frame, []bits.Bit) {
	t.Helper()
	x := bits.Random(rng, nSym*mode.DataBitsPerSymbol())
	f := &Frame{Mode: mode, Convention: conv, NumSymbols: nSym}
	if err := setScrambledBits(f, x); err != nil {
		t.Fatal(err)
	}
	return f, x
}

// setScrambledBits stores x, the encoder input at one bit per element, as
// f's packed stream: N_sym·N_DBPS bits of f's NumSymbols and Mode.
func setScrambledBits(f *Frame, x []bits.Bit) error {
	octets, err := f.EncoderInput()
	if err != nil {
		return err
	}
	if len(x) != f.dataBits() {
		return fmt.Errorf("%d scrambled bits are not %d DATA symbols of %v", len(x), f.NumSymbols, f.Mode)
	}
	for i, b := range x {
		SetPackedBit(octets, i, b)
	}
	return nil
}

// renderFrame runs every DATA symbol of f through renderSymbol and
// returns the frame's whole mother stream, interleaved coded bits and
// points, symbol after symbol.
func renderFrame(f *Frame) (mother, inter []bits.Bit, pts []complex128, err error) {
	slots, err := f.renderable()
	if err != nil {
		return nil, nil, nil, err
	}
	block := 2 * f.Mode.DataBitsPerSymbol()
	pts = make([]complex128, f.NumSymbols*NumDataSubcarriers)
	var s txSymbol
	var reg uint32
	for sym := 0; sym < f.NumSymbols; sym++ {
		if reg, err = f.renderSymbol(&s, sym, reg, slots, pts[sym*NumDataSubcarriers:(sym+1)*NumDataSubcarriers]); err != nil {
			return nil, nil, nil, err
		}
		mother = append(mother, s.mother[:block]...)
		inter = append(inter, s.inter[:len(slots)]...)
	}
	return mother, inter, pts, nil
}

// TestInterleaveRoundTrip runs the placement pair the PHY uses: the
// transmitter's gather from the mother stream (renderSymbol), then the
// receiver's per-symbol scatter back into it (scatterBits), for both
// conventions, every mode and one- and three-symbol streams. Kept slots
// come back as the transmitted bits, punctured ones as erasures.
func TestInterleaveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	forEachConventionMode(func(conv Convention, mode Mode) {
		slots := conv.CodedSlots(mode)
		block := 2 * mode.DataBitsPerSymbol()
		pat, _ := puncturePattern(mode.CodeRate)
		for _, nSym := range []int{1, 3} {
			f, _ := randomFrame(t, rng, conv, mode, nSym)
			sent, inter, _, err := renderFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			back := make([]int8, nSym*block)
			for sym := 0; sym < nSym; sym++ {
				scatterBits(back[sym*block:(sym+1)*block], inter[sym*len(slots):(sym+1)*len(slots)], slots)
			}
			want := signedMother(sent, nil)
			for i := range want {
				if !pat[i%len(pat)] {
					want[i] = 0
				}
				if back[i] != want[i] {
					t.Fatalf("%v %v, %d symbols: mother slot %d = %d after the round trip, want %d", conv, mode, nSym, i, back[i], want[i])
				}
			}
		}
	})
}

// mapPoint maps one bit group through the production mapper.
func mapPoint(t *testing.T, c Convention, m Modulation, b []bits.Bit) complex128 {
	t.Helper()
	var p [1]complex128
	if err := c.MapAllCInto(m, b, p[:]); err != nil {
		t.Fatal(err)
	}
	return p[0]
}

// demapPoint hard-demaps one point through the production demapper.
func demapPoint(t *testing.T, c Convention, m Modulation, p complex128) []bits.Bit {
	t.Helper()
	out := make([]bits.Bit, m.BitsPerSubcarrier())
	if err := c.DemapAllCInto(out, m, []complex128{p}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestQAMGrayMapping16(t *testing.T) {
	// 802.11 Table 18-10: b0b1 -> I in {-3,-1,1,3} as 00,01,11,10.
	k := NormFactor(QAM16)
	cases := map[[4]bits.Bit]complex128{
		{0, 0, 0, 0}: complex(-3*k, -3*k),
		{0, 1, 0, 1}: complex(-1*k, -1*k),
		{1, 1, 1, 1}: complex(1*k, 1*k),
		{1, 0, 1, 0}: complex(3*k, 3*k),
		{1, 1, 0, 0}: complex(1*k, -3*k),
	}
	for in, want := range cases {
		if got := mapPoint(t, ConventionIEEE, QAM16, in[:]); cmplx.Abs(got-want) > 1e-12 {
			t.Errorf("map(QAM16, %v) = %v, want %v", in, got, want)
		}
	}
}

func TestQAMRoundTripAllPoints(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64, QAM256} {
		n := m.BitsPerSubcarrier()
		for v := 0; v < 1<<n; v++ {
			in := bits.FromUint(uint64(v), n)
			p := mapPoint(t, ConventionIEEE, m, in)
			if out := demapPoint(t, ConventionIEEE, m, p); !bits.Equal(in, out) {
				t.Fatalf("%v: point %s demapped to %s", m, bits.String(in), bits.String(out))
			}
		}
	}
}

func TestQAMUnitAveragePower(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64, QAM256} {
		n := m.BitsPerSubcarrier()
		var sum float64
		for v := 0; v < 1<<n; v++ {
			p := mapPoint(t, ConventionIEEE, m, bits.FromUint(uint64(v), n))
			sum += real(p)*real(p) + imag(p)*imag(p)
		}
		avg := sum / float64(int(1)<<n)
		if math.Abs(avg-1) > 1e-12 {
			t.Errorf("%v: average constellation power %g, want 1", m, avg)
		}
	}
}

func TestTheoreticalPowerReduction(t *testing.T) {
	// Paper section III-B: 7.0, 13.2, 19.3 dB.
	cases := []struct {
		m    Modulation
		want float64
	}{
		{QAM16, 7.0},
		{QAM64, 13.2},
		{QAM256, 19.3},
	}
	for _, tc := range cases {
		got := PowerReductionDB(tc.m)
		if math.Abs(got-tc.want) > 0.05 {
			t.Errorf("PowerReductionDB(%v) = %.2f dB, want %.1f dB", tc.m, got, tc.want)
		}
	}
}

func TestSignificantOffsetsForceLowestRing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, m := range []Modulation{QAM16, QAM64, QAM256} {
		offsets, values := ConventionIEEE.SignificantOffsetsC(m)
		wantCount := map[Modulation]int{QAM16: 2, QAM64: 4, QAM256: 6}[m]
		if len(offsets) != wantCount {
			t.Fatalf("%v: %d significant bits, want %d (Table I)", m, len(offsets), wantCount)
		}
		// Any point with the significant bits pinned must land on the
		// lowest-power ring, whatever the free bits hold.
		for trial := 0; trial < 64; trial++ {
			b := bits.Random(rng, m.BitsPerSubcarrier())
			for i, off := range offsets {
				b[off] = values[i]
			}
			p := mapPoint(t, ConventionIEEE, m, b)
			power := (real(p)*real(p) + imag(p)*imag(p)) / (NormFactor(m) * NormFactor(m))
			if math.Abs(power-2) > 1e-9 {
				t.Fatalf("%v: pinned point %v has unnormalized power %g, want 2", m, p, power)
			}
		}
	}
}

func TestModeTables(t *testing.T) {
	cases := []struct {
		mode         Mode
		nCBPS, nDBPS int
	}{
		{Mode{QAM16, Rate12}, 192, 96},
		{Mode{QAM16, Rate34}, 192, 144},
		{Mode{QAM64, Rate23}, 288, 192},
		{Mode{QAM64, Rate34}, 288, 216},
		{Mode{QAM64, Rate56}, 288, 240},
		{Mode{QAM256, Rate34}, 384, 288},
		{Mode{QAM256, Rate56}, 384, 320},
	}
	for _, tc := range cases {
		if got := tc.mode.CodedBitsPerSymbol(); got != tc.nCBPS {
			t.Errorf("%v: N_CBPS = %d, want %d", tc.mode, got, tc.nCBPS)
		}
		if got := tc.mode.DataBitsPerSymbol(); got != tc.nDBPS {
			t.Errorf("%v: N_DBPS = %d, want %d", tc.mode, got, tc.nDBPS)
		}
	}
}

func TestSubcarrierSets(t *testing.T) {
	ds := DataSubcarriers()
	if len(ds) != 48 {
		t.Fatalf("%d data subcarriers, want 48", len(ds))
	}
	for i, k := range ds {
		if slices.Contains(PilotSubcarriers(), k) || k == 0 || k < -26 || k > 26 {
			t.Errorf("data subcarrier %d overlaps pilot/null", k)
		}
		if got := DataIndex(k); got != i {
			t.Errorf("DataIndex(%d) = %d, want %d", k, got, i)
		}
	}
	for _, k := range []int{-27, -21, -7, 0, 7, 21, 27} {
		if got := DataIndex(k); got != -1 {
			t.Errorf("DataIndex(%d) = %d, want -1 for a pilot or null", k, got)
		}
	}
	if got := PilotSubcarriers(); len(got) != 4 {
		t.Fatalf("%d pilots, want 4", len(got))
	}
}

func TestSignalFieldRoundTrip(t *testing.T) {
	for _, m := range PaperModes() {
		for _, length := range []int{1, 100, 1500, 4095} {
			b, err := SignalField(m, length)
			if err != nil {
				t.Fatal(err)
			}
			gotMode, gotLen, err := ParseSignalField(b[:])
			if err != nil {
				t.Fatal(err)
			}
			if gotMode != m || gotLen != length {
				t.Errorf("SIGNAL round trip: got (%v, %d), want (%v, %d)", gotMode, gotLen, m, length)
			}
		}
	}
}

func TestSignalSymbolRoundTrip(t *testing.T) {
	pts, err := EncodeSignalSymbol(Mode{QAM64, Rate34}, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != NumDataSubcarriers {
		t.Fatalf("SIGNAL symbol has %d points, want %d", len(pts), NumDataSubcarriers)
	}
	mode, length, err := DecodeSignalSymbol(pts)
	if err != nil {
		t.Fatal(err)
	}
	if mode != (Mode{QAM64, Rate34}) || length != 1234 {
		t.Fatalf("SIGNAL symbol round trip: got (%v, %d)", mode, length)
	}
}

func TestSignalParityDetectsCorruption(t *testing.T) {
	b, err := SignalField(Mode{QAM16, Rate12}, 42)
	if err != nil {
		t.Fatal(err)
	}
	b[7] ^= 1
	if _, _, err := ParseSignalField(b[:]); err == nil {
		t.Fatal("corrupted SIGNAL field passed parity")
	}
}

// oracleSignalField is SignalField as it stood before it returned the
// field by value: an appended slice with RATE from bits.FromUint.
func oracleSignalField(m Mode, length int) ([]bits.Bit, error) {
	if length < 1 || length > maxPSDULength {
		return nil, fmt.Errorf("wifi: PSDU length %d out of range [1, %d]", length, maxPSDULength)
	}
	code, err := rateCode(m)
	if err != nil {
		return nil, err
	}
	out := make([]bits.Bit, 0, 24)
	out = append(out, bits.FromUint(uint64(code), 4)...) // RATE, MSB first (R1..R4)
	out = append(out, 0)                                 // reserved
	for i := 0; i < 12; i++ {                            // LENGTH, LSB first
		out = append(out, bits.Bit((length>>i)&1))
	}
	out = append(out, bits.Parity(out)) // even parity over bits 0..16
	out = append(out, 0, 0, 0, 0, 0, 0) // tail
	return out, nil
}

// TestSignalFieldMatchesBuilder checks the by-value SIGNAL field against
// the slice builder it replaced for all 20 modes and every length from 0
// to one past the maximum: the same bits where the builder succeeds, an
// error wherever it fails (lengths 0 and 4096, modes without a RATE code).
func TestSignalFieldMatchesBuilder(t *testing.T) {
	modes := allModes()
	if len(modes) != 20 {
		t.Fatalf("%d modes, want 20", len(modes))
	}
	for _, m := range modes {
		for length := 0; length <= maxPSDULength+1; length++ {
			got, gerr := SignalField(m, length)
			want, werr := oracleSignalField(m, length)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%v length %d: error %v, builder's %v", m, length, gerr, werr)
			}
			if werr == nil && !bits.Equal(got[:], want) {
				t.Fatalf("%v length %d: field %s, builder's %s", m, length, bits.String(got[:]), bits.String(want))
			}
		}
	}
}

// TestAppendWaveformDoesNotAllocate pins rendering into a buffer of
// sufficient capacity at zero allocations under both conventions, with
// and without the race detector: the SIGNAL field is a value, each
// symbol's transmit chain runs in fixed-size locals, and the mapper reads
// a static table.
func TestAppendWaveformDoesNotAllocate(t *testing.T) {
	for _, c := range []Convention{ConventionIEEE, ConventionPaper} {
		frame, err := Transmitter{Mode: Mode{QAM64, Rate34}, Convention: c}.Frame(bits.RandomBytes(rand.New(rand.NewSource(7)), 1500))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]complex128, 0, PreambleLength+(1+frame.NumSymbols)*SymbolLength)
		if buf, err = frame.AppendWaveform(buf); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(20, func() {
			if buf, err = frame.AppendWaveform(buf[:0]); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%v: AppendWaveform allocates %.1f times per frame, want 0", c, avg)
		}
		if avg := testing.AllocsPerRun(20, func() {
			if buf, err = frame.AppendDataWaveform(buf[:0]); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%v: AppendDataWaveform allocates %.1f times per frame, want 0", c, avg)
		}
	}
}

// oracleScrambled is the encoder input Transmitter.Frame built before
// frames kept it packed: SERVICE, PSDU, tail and pad at one bit per
// element, scrambled by an allocating scrambler, then the tail zeroed.
func oracleScrambled(mode Mode, psdu []byte, seed uint8) ([]bits.Bit, error) {
	logical := make([]bits.Bit, NumDataSymbols(mode, len(psdu))*mode.DataBitsPerSymbol())
	copy(logical[serviceBits:], bits.FromBytes(psdu))
	x, err := ScrambleWithSeed(logical, seed)
	if err != nil {
		return nil, err
	}
	tail := serviceBits + 8*len(psdu)
	clear(x[tail : tail+tailBits])
	return x, nil
}

// TestFrameMatchesBitPipeline holds Transmitter.Frame's octet-wise
// scramble to the bit pipeline it replaced, for both conventions and all
// 20 modes (BPSK r3/4's 36-bit symbols leave the last octet partial) over
// random lengths and seeds. Packing that stream back in must give the
// same octets, and the DATA-only render must be the tail of the PPDU.
func TestFrameMatchesBitPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	forEachConventionMode(func(c Convention, mode Mode) {
		for trial := 0; trial < 4; trial++ {
			psdu := bits.RandomBytes(rng, 1+rng.Intn(200))
			seed := uint8(1 + rng.Intn(127))
			f, err := Transmitter{Mode: mode, Seed: seed, Convention: c}.Frame(psdu)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleScrambled(mode, psdu, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !bits.Equal(f.ScrambledBits(), want) {
				t.Fatalf("%v %v, %d octets, seed %#x: scrambled stream differs from the bit pipeline's", c, mode, len(psdu), seed)
			}
			g := &Frame{Mode: mode, NumSymbols: f.NumSymbols}
			if err := setScrambledBits(g, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.scrambled, f.scrambled) {
				t.Fatalf("%v %v, %d octets: repacked stream differs", c, mode, len(psdu))
			}
			if _, err := SignalField(mode, len(psdu)); trial > 0 || err != nil {
				continue // modes without a RATE code have no PPDU
			}
			wave, err := f.Waveform()
			if err != nil {
				t.Fatal(err)
			}
			data, err := f.DataWaveform()
			if err != nil {
				t.Fatal(err)
			}
			if tail := wave[len(wave)-len(data):]; len(data) != f.NumSymbols*SymbolLength || !slices.Equal(tail, data) {
				t.Fatalf("%v %v: DATA-only render is not the PPDU's tail", c, mode)
			}
		}
	})
}

func TestPreambleStructure(t *testing.T) {
	p := Preamble()
	if len(p) != PreambleLength {
		t.Fatalf("preamble length %d, want %d", len(p), PreambleLength)
	}
	// Short training symbol repeats with period 16 over the first 160
	// samples.
	for i := 16; i < 160; i++ {
		if cmplx.Abs(p[i]-p[i-16]) > 1e-12 {
			t.Fatalf("STS not periodic at sample %d", i)
		}
	}
	// The two LTS periods are identical.
	for i := 0; i < 64; i++ {
		if cmplx.Abs(p[192+i]-p[256+i]) > 1e-12 {
			t.Fatalf("LTS repetitions differ at sample %d", i)
		}
	}
}

func TestFrameWaveformRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mode := range []Mode{{QAM16, Rate12}, {QAM64, Rate23}, {QAM256, Rate56}} {
		psdu := bits.RandomBytes(rng, 300)
		tx := Transmitter{Mode: mode}
		frame, err := tx.Frame(psdu)
		if err != nil {
			t.Fatal(err)
		}
		wave, err := frame.Waveform()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Receiver{}.Receive(wave)
		if err != nil {
			t.Fatalf("%v: receive: %v", mode, err)
		}
		if res.Mode != mode {
			t.Fatalf("%v: decoded mode %v", mode, res.Mode)
		}
		if len(res.PSDU) != len(psdu) {
			t.Fatalf("%v: decoded %d bytes, want %d", mode, len(res.PSDU), len(psdu))
		}
		for i := range psdu {
			if res.PSDU[i] != psdu[i] {
				t.Fatalf("%v: PSDU differs at byte %d", mode, i)
			}
		}
	}
}

func TestOFDMSymbolRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([]complex128, NumDataSubcarriers)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	sym, err := AssembleSymbol(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sym) != SymbolLength {
		t.Fatalf("symbol length %d, want %d", len(sym), SymbolLength)
	}
	// Cyclic prefix equals the tail of the symbol.
	for i := 0; i < CPLength; i++ {
		if cmplx.Abs(sym[i]-sym[NumSubcarriers+i]) > 1e-12 {
			t.Fatalf("cyclic prefix mismatch at %d", i)
		}
	}
	freq, err := FrequencyDomain(sym)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtractSubcarriers(freq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if cmplx.Abs(got[i]-data[i]) > 1e-9 {
			t.Fatalf("subcarrier %d: got %v want %v", i, got[i], data[i])
		}
	}
}

func TestPPDUDuration(t *testing.T) {
	// QAM-16 r=1/2 (24 Mbit/s equivalent... 96 bits/symbol): 1500-byte PSDU
	// needs ceil((16+12000+6)/96) = 126 symbols -> 20us + 126*4us = 524us.
	d := PPDUDuration(Mode{QAM16, Rate12}, 1500)
	if math.Abs(d-524e-6) > 1e-9 {
		t.Fatalf("PPDUDuration = %g, want 524us", d)
	}
}
