package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sledzig/internal/bits"
	"sledzig/internal/channel"
	"sledzig/internal/dsp"
	"sledzig/internal/wifi"
)

func TestChannelGeometry(t *testing.T) {
	cases := []struct {
		ch      ZigBeeChannel
		window  []int
		data    []int
		indices []int // positions in the 48-wide wifi.DataSubcarriers()
		pilots  []int
	}{
		{CH1, []int{-26, -25, -24, -23, -22, -21, -20, -19}, []int{-26, -25, -24, -23, -22, -20, -19}, []int{0, 1, 2, 3, 4, 5, 6}, []int{-21}},
		{CH2, []int{-10, -9, -8, -7, -6, -5, -4, -3}, []int{-10, -9, -8, -6, -5, -4, -3}, []int{15, 16, 17, 18, 19, 20, 21}, []int{-7}},
		{CH3, []int{6, 7, 8, 9, 10, 11, 12, 13}, []int{6, 8, 9, 10, 11, 12, 13}, []int{29, 30, 31, 32, 33, 34, 35}, []int{7}},
		{CH4, []int{22, 23, 24, 25, 26, 27, 28, 29}, []int{22, 23, 24, 25, 26}, []int{43, 44, 45, 46, 47}, []int{}},
	}
	all := wifi.DataSubcarriers()
	for _, tc := range cases {
		views := []struct {
			name string
			get  func() []int
			want []int
		}{
			{name: "window", get: tc.ch.SubcarrierWindow, want: tc.window},
			{name: "data", get: tc.ch.DataSubcarriers, want: tc.data},
			{name: "indices", get: tc.ch.DataIndices, want: tc.indices},
			{name: "pilots", get: tc.ch.PilotSubcarriers, want: tc.pilots},
		}
		for _, v := range views {
			got := v.get()
			if !slices.Equal(got, v.want) {
				t.Fatalf("%v %s = %v, want %v", tc.ch, v.name, got, v.want)
			}
			// The views are shared: their capacity is clipped, so an append
			// copies rather than writing into the table, and the next call
			// sees the same values.
			if cap(got) != len(got) {
				t.Fatalf("%v %s: capacity %d exceeds length %d", tc.ch, v.name, cap(got), len(got))
			}
			_ = append(got, 99)
			if again := v.get(); !slices.Equal(again, v.want) {
				t.Fatalf("%v %s after append = %v, want %v", tc.ch, v.name, again, v.want)
			}
		}
		for i, idx := range tc.ch.DataIndices() {
			if all[idx] != tc.data[i] {
				t.Errorf("%v: data index %d names subcarrier %d, want %d", tc.ch, idx, all[idx], tc.data[i])
			}
		}
	}
	for _, ch := range []ZigBeeChannel{0, 5, -1} {
		if ch.Valid() {
			t.Fatalf("%v reports valid", ch)
		}
		for name, got := range map[string][]int{
			"window":  ch.SubcarrierWindow(),
			"data":    ch.DataSubcarriers(),
			"indices": ch.DataIndices(),
			"pilots":  ch.PilotSubcarriers(),
		} {
			if got != nil {
				t.Errorf("%v %s = %v, want nil", ch, name, got)
			}
		}
	}
}

func TestFromZigBeeChannelNumber(t *testing.T) {
	// The paper's setup: WiFi channel 13 overlaps ZigBee 23-26 as CH1-CH4.
	for i, zb := range []int{23, 24, 25, 26} {
		got, err := FromZigBeeChannelNumber(zb, 13)
		if err != nil {
			t.Fatal(err)
		}
		if got != ZigBeeChannel(i+1) {
			t.Errorf("ZigBee %d on WiFi 13 = %v, want CH%d", zb, got, i+1)
		}
	}
	if _, err := FromZigBeeChannelNumber(11, 13); err == nil {
		t.Error("non-overlapping channel accepted")
	}
}

// TestTableIISignificantPositions reproduces the paper's Table II exactly:
// the 14 significant-bit positions of the first OFDM symbol under QAM-16,
// rate 1/2, channel CH2, with the twin steps at n = 15, 21, 39, 45.
func TestTableIISignificantPositions(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}
	cs, err := SymbolConstraints(wifi.ConventionPaper, mode, CH2.DataSubcarriers())
	if err != nil {
		t.Fatal(err)
	}
	wantP := []int{29, 30, 41, 42, 77, 78, 89, 90, 125, 138, 172, 173, 183, 186}
	wantN := []int{15, 15, 21, 21, 39, 39, 45, 45, 63, 69, 86, 87, 92, 93}
	if len(cs) != len(wantP) {
		t.Fatalf("%d significant bits, want %d", len(cs), len(wantP))
	}
	for i, c := range cs {
		if c.PaperPosition() != wantP[i] {
			t.Errorf("p_%d = %d, want %d", i+1, c.PaperPosition(), wantP[i])
		}
		if c.Step()+1 != wantN[i] {
			t.Errorf("n_%d = %d, want %d", i+1, c.Step()+1, wantN[i])
		}
	}
}

// TestTableIIAlgorithmOnePositions checks that the planner the encoder
// runs picks the paper's Algorithm 1 extra-bit slots for Table II's
// symbol: twins solve through inputs n-1 and n-5, singles through n.
func TestTableIIAlgorithmOnePositions(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}
	plan, err := NewPlan(wifi.ConventionPaper, mode, CH2)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := frameLayout(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 1-based steps 15,21,39,45 are twins; extras at n-1 and n-5.
	wantExtras := map[int][]int{
		14: {13, 9}, 20: {19, 15}, 38: {37, 33}, 44: {43, 39},
		62: {62}, 68: {68}, 85: {85}, 86: {86}, 91: {91}, 92: {92},
	}
	if len(layout.positions) != 14 || len(layout.clusters) != 4 {
		t.Fatalf("%d extra bits in %d clusters, want 14 in 4", len(layout.positions), len(layout.clusters))
	}
	clusterOf := make(map[int]int)
	for ci, c := range layout.clusters {
		var want []int
		for _, eq := range c.Equations {
			step := eq.Step()
			if owner, ok := clusterOf[step]; ok {
				if owner != ci {
					t.Fatalf("step %d split across clusters %d and %d", step, owner, ci)
				}
				continue
			}
			extras, ok := wantExtras[step]
			if !ok {
				t.Fatalf("cluster %d: step %d is not a Table II step", ci, step)
			}
			clusterOf[step] = ci
			want = append(want, extras...)
		}
		slices.Sort(want)
		got := slices.Clone(c.Positions)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("cluster %d: extra bits %v, want Algorithm 1 slots %v", ci, got, want)
		}
	}
	if len(clusterOf) != len(wantExtras) {
		t.Fatalf("%d constrained steps, want %d", len(clusterOf), len(wantExtras))
	}
}

// TestTableIIIExtraBits verifies the extra-bit counts per OFDM symbol from
// first principles (paper Table III). The paper's QAM-64 r=2/3 CH1-CH3
// entry (24) disagrees with its own Table IV (14.58% of 192 = 28); the
// first-principles count is 28.
func TestTableIIIExtraBits(t *testing.T) {
	want := map[wifi.Mode][2]int{
		{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}:  {14, 10},
		{Modulation: wifi.QAM16, CodeRate: wifi.Rate34}:  {14, 10},
		{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}:  {28, 20},
		{Modulation: wifi.QAM64, CodeRate: wifi.Rate34}:  {28, 20},
		{Modulation: wifi.QAM64, CodeRate: wifi.Rate56}:  {28, 20},
		{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}: {42, 30},
		{Modulation: wifi.QAM256, CodeRate: wifi.Rate56}: {42, 30},
	}
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		rows, err := OverheadTable(conv)
		if err != nil {
			t.Fatalf("%v: %v", conv, err)
		}
		for _, row := range rows {
			w := want[row.Mode]
			if row.ExtraBitsCH13 != w[0] || row.ExtraBitsCH4 != w[1] {
				t.Errorf("%v %v: extras (%d, %d), want (%d, %d)",
					conv, row.Mode, row.ExtraBitsCH13, row.ExtraBitsCH4, w[0], w[1])
			}
		}
	}
}

// TestTableIVThroughputLoss verifies the loss percentages against the
// paper's Table IV (the QAM-64 2/3 and QAM-256 3/4 CH4 rows differ from
// the paper's arithmetic as documented in EXPERIMENTS.md).
func TestTableIVThroughputLoss(t *testing.T) {
	rows, err := OverheadTable(wifi.ConventionPaper)
	if err != nil {
		t.Fatal(err)
	}
	want := map[wifi.Mode][2]float64{
		{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}:  {14.58, 10.42},
		{Modulation: wifi.QAM16, CodeRate: wifi.Rate34}:  {9.72, 6.94},
		{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}:  {14.58, 10.42},
		{Modulation: wifi.QAM64, CodeRate: wifi.Rate34}:  {12.96, 9.26},
		{Modulation: wifi.QAM64, CodeRate: wifi.Rate56}:  {11.67, 8.33},
		{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}: {14.58, 10.42},
		{Modulation: wifi.QAM256, CodeRate: wifi.Rate56}: {13.12, 9.37},
	}
	for _, row := range rows {
		w := want[row.Mode]
		if math.Abs(100*row.LossCH13-w[0]) > 0.01 {
			t.Errorf("%v: CH1-3 loss %.2f%%, want %.2f%%", row.Mode, 100*row.LossCH13, w[0])
		}
		if math.Abs(100*row.LossCH4-w[1]) > 0.01 {
			t.Errorf("%v: CH4 loss %.2f%%, want %.2f%%", row.Mode, 100*row.LossCH4, w[1])
		}
	}
}

func TestPlanAllCombos(t *testing.T) {
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		for _, mode := range wifi.PaperModes() {
			for _, ch := range AllChannels() {
				plan, err := NewPlan(conv, mode, ch)
				if err != nil {
					t.Fatalf("%v %v %v: %v", conv, mode, ch, err)
				}
				if plan.ExtraBitsPerSymbol() <= 0 {
					t.Fatalf("%v %v %v: no extra bits", conv, mode, ch)
				}
				// Layouts for a range of frame sizes must be valid.
				for _, nSym := range []int{1, 2, 7, 20} {
					layout, err := plan.FrameLayout(nSym)
					if err != nil {
						t.Fatalf("%v %v %v nSym=%d: %v", conv, mode, ch, nSym, err)
					}
					if len(layout.Positions) != nSym*plan.ExtraBitsPerSymbol() {
						t.Fatalf("%v %v %v nSym=%d: %d positions, want %d",
							conv, mode, ch, nSym, len(layout.Positions), nSym*plan.ExtraBitsPerSymbol())
					}
				}
			}
		}
	}
}

// TestEncodePinsLowestRing is the central mechanism test: after encoding,
// every overlapped data subcarrier of every OFDM symbol carries a
// lowest-power constellation point, under both conventions and all paper
// mode/channel combinations.
func TestEncodePinsLowestRing(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		for _, mode := range wifi.PaperModes() {
			for _, ch := range AllChannels() {
				plan, err := NewPlan(conv, mode, ch)
				if err != nil {
					t.Fatal(err)
				}
				enc := Encoder{Plan: plan}
				payload := bits.RandomBytes(rng, 180)
				res, err := enc.Encode(payload)
				if err != nil {
					t.Fatalf("%v %v %v: %v", conv, mode, ch, err)
				}
				pts, err := res.Frame.DataPoints()
				if err != nil {
					t.Fatal(err)
				}
				dataIndex := map[int]int{}
				for i, k := range wifi.DataSubcarriers() {
					dataIndex[k] = i
				}
				kmod := wifi.NormFactor(mode.Modulation)
				for s, sym := range pts {
					for _, k := range ch.DataSubcarriers() {
						p := sym[dataIndex[k]]
						power := (real(p)*real(p) + imag(p)*imag(p)) / (kmod * kmod)
						if math.Abs(power-2) > 1e-9 {
							t.Fatalf("%v %v %v: symbol %d subcarrier %d has power %g, want 2",
								conv, mode, ch, s, k, power)
						}
					}
				}
			}
		}
	}
}

// TestEncodeDecodeRoundTrip drives the full pipeline: SledZig encode ->
// OFDM waveform -> standard receive -> channel detection -> extra-bit
// stripping -> payload.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		for _, mode := range wifi.PaperModes() {
			for _, ch := range AllChannels() {
				plan, err := NewPlan(conv, mode, ch)
				if err != nil {
					t.Fatal(err)
				}
				payload := bits.RandomBytes(rng, 60+rng.Intn(400))
				res, err := (&Encoder{Plan: plan}).Encode(payload)
				if err != nil {
					t.Fatal(err)
				}
				wave, err := res.Frame.Waveform()
				if err != nil {
					t.Fatal(err)
				}
				rx, err := wifi.Receiver{Convention: conv}.Receive(wave)
				if err != nil {
					t.Fatalf("%v %v %v: receive: %v", conv, mode, ch, err)
				}
				got, detected, err := Decoder{Convention: conv}.DecodeAuto(rx)
				if err != nil {
					t.Fatalf("%v %v %v: decode: %v", conv, mode, ch, err)
				}
				if detected != ch {
					t.Fatalf("%v %v: detected %v, want %v", conv, mode, detected, ch)
				}
				if len(got) != len(payload) {
					t.Fatalf("%v %v %v: got %d bytes, want %d", conv, mode, ch, len(got), len(payload))
				}
				for i := range payload {
					if got[i] != payload[i] {
						t.Fatalf("%v %v %v: payload differs at %d", conv, mode, ch, i)
					}
				}
			}
		}
	}
}

// TestTransmitBitsStandardEquivalence confirms the paper's deployment
// story: feeding EncodeResult.TransmitBits() into a completely standard
// transmitter (scramble -> code -> interleave -> map) produces the same
// constellation points as the SledZig frame.
func TestTransmitBitsStandardEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	mode := wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate34}
	plan, err := NewPlan(wifi.ConventionPaper, mode, CH3)
	if err != nil {
		t.Fatal(err)
	}
	payload := bits.RandomBytes(rng, 200)
	res, err := (&Encoder{Plan: plan}).Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Standard chain: scramble the transmit bits and compare the encoder
	// input with the frame's.
	rescrambled, err := wifi.ScrambleWithSeed(res.TransmitBits(), wifi.DefaultScramblerSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(rescrambled, res.Frame.ScrambledBits()) {
		t.Fatal("standard scrambling of TransmitBits does not reproduce the frame's encoder input")
	}
}

func TestDetectChannelRejectsNormalFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tx := wifi.Transmitter{Mode: wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}}
	frame, err := tx.Frame(bits.RandomBytes(rng, 300))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := frame.DataPoints()
	if err != nil {
		t.Fatal(err)
	}
	if ch, ok := (Decoder{}).DetectChannel(wifi.QAM16, pts); ok {
		t.Fatalf("normal frame detected as SledZig on %v", ch)
	}
}

// TestBandPowerReduction measures the actual waveform: the SledZig frame's
// power inside the protected ZigBee channel must be well below the normal
// frame's, approaching the theoretical reduction for CH4 (no pilot) and a
// pilot-limited reduction for CH1-CH3 (paper Fig. 12).
func TestBandPowerReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, tc := range []struct {
		mod     wifi.Modulation
		rate    wifi.CodeRate
		ch      ZigBeeChannel
		minDrop float64
		maxDrop float64
	}{
		{wifi.QAM16, wifi.Rate12, CH4, 5.5, 9},
		{wifi.QAM64, wifi.Rate23, CH4, 10, 15},
		{wifi.QAM256, wifi.Rate34, CH4, 13, 21},
		{wifi.QAM16, wifi.Rate12, CH2, 3, 6},
		{wifi.QAM64, wifi.Rate23, CH2, 5, 9},
		{wifi.QAM256, wifi.Rate34, CH2, 6, 10},
	} {
		mode := wifi.Mode{Modulation: tc.mod, CodeRate: tc.rate}
		payload := bits.RandomBytes(rng, 500)

		normal, err := wifi.Transmitter{Mode: mode, Convention: wifi.ConventionPaper}.Frame(payload)
		if err != nil {
			t.Fatal(err)
		}
		normalWave, err := normal.DataWaveform()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlan(wifi.ConventionPaper, mode, tc.ch)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&Encoder{Plan: plan}).Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		sledWave, err := res.Frame.DataWaveform()
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := tc.ch.BandHz()
		pN, err := dsp.BandPower(normalWave, wifi.SampleRate, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		pS, err := dsp.BandPower(sledWave, wifi.SampleRate, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		drop := dsp.DB(pN) - dsp.DB(pS)
		if drop < tc.minDrop || drop > tc.maxDrop {
			t.Errorf("%v %v: band power drop %.1f dB, want in [%.1f, %.1f]",
				mode, tc.ch, drop, tc.minDrop, tc.maxDrop)
		}
	}
}

func TestEncoderPropertyRandomPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	plan, err := NewPlan(wifi.ConventionPaper, wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, CH2)
	if err != nil {
		t.Fatal(err)
	}
	enc := &Encoder{Plan: plan}
	dec := Decoder{Convention: wifi.ConventionPaper}
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		payload := bits.RandomBytes(lr, 1+lr.Intn(300))
		res, err := enc.Encode(payload)
		if err != nil {
			return false
		}
		// Bit-domain round trip (no waveform, fast).
		rx := &wifi.RxResult{
			Mode:     plan.Mode,
			DataBits: res.TransmitBits(),
		}
		got, err := dec.Decode(rx, CH2)
		if err != nil || len(got) != len(payload) {
			return false
		}
		for i := range payload {
			if got[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPayloadAndNumSymbolsConsistent(t *testing.T) {
	plan, err := NewPlan(wifi.ConventionPaper, wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate56}, CH1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 5, 30} {
		maxLen := plan.MaxPayload(n)
		if maxLen < 1 {
			continue
		}
		if got := plan.NumSymbols(maxLen); got != n {
			t.Errorf("MaxPayload(%d)=%d but NumSymbols=%d", n, maxLen, got)
		}
		if got := plan.NumSymbols(maxLen + 1); got != n+1 {
			t.Errorf("NumSymbols(MaxPayload(%d)+1)=%d, want %d", n, got, n+1)
		}
	}
}

func TestSubcarrierSubset(t *testing.T) {
	// Fig. 11's sweep: subsets grow outward from the channel center.
	s6, err := CH2.DataSubcarrierSubset(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(s6) != 6 {
		t.Fatalf("subset size %d", len(s6))
	}
	s7, err := CH2.DataSubcarrierSubset(7)
	if err != nil {
		t.Fatal(err)
	}
	// The 7-subcarrier subset is the full window's data set.
	all := CH2.DataSubcarriers()
	for i := range all {
		if s7[i] != all[i] {
			t.Fatalf("7-subcarrier subset %v != full set %v", s7, all)
		}
	}
	// The 8th subcarrier extends past the window (the pilot is skipped).
	s8, err := CH2.DataSubcarrierSubset(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(s8) != 8 {
		t.Fatalf("8-subcarrier subset has %d entries", len(s8))
	}
	if _, err := CH2.DataSubcarrierSubset(49); err == nil {
		t.Fatal("oversized subset accepted")
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	plan, err := NewPlan(wifi.ConventionPaper, wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, CH1)
	if err != nil {
		t.Fatal(err)
	}
	enc := &Encoder{Plan: plan}
	if _, err := enc.Encode(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := (&Encoder{}).Encode([]byte{1}); err == nil {
		t.Error("nil plan accepted")
	}
}

// TestNotchSurvivesMultipath: the SledZig suppression is a transmit-side
// property; a frequency-selective channel shifts absolute levels but the
// protected band must stay well below the rest of the spectrum.
func TestNotchSurvivesMultipath(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	mode := wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}
	plan, err := NewPlan(wifi.ConventionPaper, mode, CH4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Encoder{Plan: plan}).Encode(bits.RandomBytes(rng, 400))
	if err != nil {
		t.Fatal(err)
	}
	wave, err := res.Frame.DataWaveform()
	if err != nil {
		t.Fatal(err)
	}
	mp := channel.TwoRay(8, 6)
	faded, err := mp.Apply(wave)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := CH4.BandHz()
	inBand, err := dsp.BandPower(faded, wifi.SampleRate, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	refLo, refHi := CH1.BandHz()
	ref, err := dsp.BandPower(faded, wifi.SampleRate, refLo, refHi)
	if err != nil {
		t.Fatal(err)
	}
	if drop := dsp.DB(ref) - dsp.DB(inBand); drop < 8 {
		t.Fatalf("notch only %.1f dB below reference band after multipath", drop)
	}
}

// TestSledZigFrameMeetsSpectralMask: moving energy between constellation
// points must not break 802.11 transmit-mask compliance.
func TestSledZigFrameMeetsSpectralMask(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, ch := range []ZigBeeChannel{CH1, CH4} {
		plan, err := NewPlan(wifi.ConventionPaper, wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}, ch)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&Encoder{Plan: plan}).Encode(bits.RandomBytes(rng, 2500))
		if err != nil {
			t.Fatal(err)
		}
		wave, err := res.Frame.DataWaveform()
		if err != nil {
			t.Fatal(err)
		}
		violations, err := wifi.CheckSpectralMask(wave, wifi.SampleRate, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(violations) > 2 {
			t.Fatalf("%v: %d mask violations", ch, len(violations))
		}
	}
}

// TestLayoutEquivalenceFullMask: expanding a plan's constraints over every
// symbol and solving them as one global list must yield exactly the
// layout FrameLayout computes — the differential test tying the CTC
// selective-masking path to the standard path.
func TestLayoutEquivalenceFullMask(t *testing.T) {
	for _, mode := range []wifi.Mode{
		{Modulation: wifi.QAM16, CodeRate: wifi.Rate12},
		{Modulation: wifi.QAM256, CodeRate: wifi.Rate34},
	} {
		plan, err := NewPlan(wifi.ConventionPaper, mode, CH2)
		if err != nil {
			t.Fatal(err)
		}
		const nSym = 6
		want, err := plan.FrameLayout(nSym)
		if err != nil {
			t.Fatal(err)
		}
		var all []Constraint
		for s := 0; s < nSym; s++ {
			for _, c := range plan.symbolConstraints {
				all = append(all, Constraint{
					MotherIndex: c.MotherIndex + s*2*mode.DataBitsPerSymbol(),
					Value:       c.Value,
				})
			}
		}
		got, err := globalLayout(all, nSym)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.positions) != len(want.Positions) {
			t.Fatalf("%v: %d vs %d positions", mode, len(got.positions), len(want.Positions))
		}
		for i := range want.Positions {
			if got.positions[i] != want.Positions[i] {
				t.Fatalf("%v: position %d differs (%d vs %d)", mode, i, got.positions[i], want.Positions[i])
			}
		}
	}
}

// TestPlanDeterminism: the same inputs always produce the same layout
// (receivers depend on it).
func TestPlanDeterminism(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate56}
	a, err := NewPlan(wifi.ConventionIEEE, mode, CH3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(wifi.ConventionIEEE, mode, CH3)
	if err != nil {
		t.Fatal(err)
	}
	la, _ := a.FrameLayout(9)
	lb, _ := b.FrameLayout(9)
	if len(la.Positions) != len(lb.Positions) {
		t.Fatal("layout sizes differ")
	}
	for i := range la.Positions {
		if la.Positions[i] != lb.Positions[i] {
			t.Fatal("layouts differ between identical plans")
		}
	}
}
