package ht40

import (
	"math"
	"math/rand"
	"testing"

	"sledzig/internal/bits"
	"sledzig/internal/dsp"
	"sledzig/internal/wifi"
)

func TestNumerology(t *testing.T) {
	ds := DataSubcarriers()
	if len(ds) != NumDataSubcarriers {
		t.Fatalf("%d data subcarriers, want %d", len(ds), NumDataSubcarriers)
	}
	for _, k := range ds {
		if IsPilot(k) || IsNull(k) {
			t.Fatalf("subcarrier %d misclassified", k)
		}
	}
	// 108 data + 6 pilots + 14 nulls (DC region of 3, edges) = 128.
	used := len(ds) + NumPilots
	if used != 114 {
		t.Fatalf("%d used subcarriers, want 114", used)
	}
}

func TestInterleaverBijection(t *testing.T) {
	for _, m := range []wifi.Modulation{wifi.BPSK, wifi.QPSK, wifi.QAM16, wifi.QAM64, wifi.QAM256} {
		n := NumDataSubcarriers * m.BitsPerSubcarrier()
		seen := make([]bool, n)
		for k := 0; k < n; k++ {
			j := InterleaveIndex(m, k)
			if j < 0 || j >= n || seen[j] {
				t.Fatalf("%v: interleaver not a bijection at %d -> %d", m, k, j)
			}
			seen[j] = true
			if back := DeinterleaveIndex(m, j); back != k {
				t.Fatalf("%v: inverse broken at %d (got %d)", m, j, back)
			}
		}
	}
}

// TestPlanSlotsMatchPerBitComposition checks the 40 MHz placement table
// against the per-bit composition it replaced, the rate's kept mother
// slots indexed by the HT deinterleaver, for both conventions and all 20
// modes; and that it is injective, with the punctured slots of each
// period the only ones it never names.
func TestPlanSlotsMatchPerBitComposition(t *testing.T) {
	patterns := map[wifi.CodeRate][]bool{
		wifi.Rate12: {true, true},
		wifi.Rate23: {true, true, true, false},
		wifi.Rate34: {true, true, true, false, false, true},
		wifi.Rate56: {true, true, true, false, false, true, true, false, false, true},
	}
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		for _, m := range []wifi.Modulation{wifi.BPSK, wifi.QPSK, wifi.QAM16, wifi.QAM64, wifi.QAM256} {
			for r, pat := range patterns {
				mode := wifi.Mode{Modulation: m, CodeRate: r}
				slots := codedSlots(conv, mode)
				var mother []int // kept mother slots, in transmit order
				for i := 0; len(mother) < len(slots); i++ {
					if pat[i%len(pat)] {
						mother = append(mother, i)
					}
				}
				block := 2 * DataBitsPerSymbol(mode)
				used := make([]bool, block)
				for j, slot := range slots {
					if want := mother[deinterleaveIndexC(conv, m, j)]; int(slot) != want {
						t.Fatalf("%v %v: slot[%d] = %d, want %d", conv, mode, j, slot, want)
					}
					if used[slot] {
						t.Fatalf("%v %v: slot %d named twice", conv, mode, slot)
					}
					used[slot] = true
				}
				for i, u := range used {
					if u != pat[i%len(pat)] {
						t.Fatalf("%v %v: mother slot %d used=%v, pattern keeps=%v", conv, mode, i, u, pat[i%len(pat)])
					}
				}
			}
		}
	}
}

func TestInterleaverSpreadsAdjacentBits(t *testing.T) {
	// Adjacent coded bits must land on well-separated subcarriers (the
	// property that scatters SledZig's significant bits).
	m := wifi.QAM64
	for k := 0; k < 100; k++ {
		j0 := InterleaveIndex(m, k) / m.BitsPerSubcarrier()
		j1 := InterleaveIndex(m, k+1) / m.BitsPerSubcarrier()
		if d := j1 - j0; d > -3 && d < 3 {
			t.Fatalf("adjacent coded bits %d,%d land on close subcarriers %d,%d", k, k+1, j0, j1)
		}
	}
}

func TestChannelGeometry(t *testing.T) {
	if got := AllChannels(); len(got) != 8 {
		t.Fatalf("%d channels", len(got))
	}
	// Offsets span -17..+18 MHz on the 5 MHz raster.
	if AllChannels()[0].OffsetHz() != -17e6 || AllChannels()[7].OffsetHz() != 18e6 {
		t.Fatal("channel offsets wrong")
	}
	for _, ch := range AllChannels() {
		w := ch.SubcarrierWindow()
		if len(w) != 8 {
			t.Fatalf("%v: window %v", ch, w)
		}
		if n := len(ch.DataSubcarriersIn()); n < 4 || n > 8 {
			t.Fatalf("%v: %d data subcarriers in window", ch, n)
		}
	}
	// CH2 (-12 MHz) sees no pilot and keeps all 8 window subcarriers;
	// CH5 (+3 MHz) straddles the pilot at +11 and loses one.
	if n := len(Channel(2).DataSubcarriersIn()); n != 8 {
		t.Fatalf("CH2 has %d data subcarriers, want 8", n)
	}
	if n := len(Channel(5).DataSubcarriersIn()); n != 7 {
		t.Fatalf("CH5 has %d data subcarriers, want 7 (pilot at +11)", n)
	}
}

func TestSymbolRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]complex128, NumDataSubcarriers)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	freq, err := SubcarrierMap(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	sym := TimeDomain(freq)
	if len(sym) != SymbolLength {
		t.Fatalf("symbol length %d", len(sym))
	}
	back, err := FrequencyDomain(sym)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtractSubcarriers(back)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if d := got[i] - data[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
			t.Fatalf("subcarrier %d mismatch", i)
		}
	}
}

func TestPlanOverheadScales(t *testing.T) {
	// On 40 MHz the same absolute extra bits spread over 108 subcarriers:
	// the relative loss halves compared to 20 MHz (the footnote's point).
	mode := wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}
	plan, err := NewPlan(wifi.ConventionPaper, mode, Channel(2))
	if err != nil {
		t.Fatal(err)
	}
	perSym := plan.ExtraBitsPerSymbol()
	if perSym < 20 || perSym > 32 {
		t.Fatalf("extra bits per symbol %d", perSym)
	}
	if loss := plan.ThroughputLossFraction(); loss > 0.08 {
		t.Fatalf("40 MHz loss %.3f should be well below the 20 MHz 14.6%%", loss)
	}
}

func TestEncodePinsLowestRing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		for _, ch := range []Channel{1, 2, 6, 8} {
			mode := wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}
			plan, err := NewPlan(conv, mode, ch)
			if err != nil {
				t.Fatalf("%v %v: %v", conv, ch, err)
			}
			frame, err := (&Encoder{Plan: plan}).Encode(bits.RandomBytes(rng, 200))
			if err != nil {
				t.Fatal(err)
			}
			pts, err := frame.DataPoints()
			if err != nil {
				t.Fatal(err)
			}
			dataIndex := map[int]int{}
			for i, k := range DataSubcarriers() {
				dataIndex[k] = i
			}
			kmod := wifi.NormFactor(mode.Modulation)
			for s, sym := range pts {
				for _, k := range ch.DataSubcarriersIn() {
					p := sym[dataIndex[k]]
					power := (real(p)*real(p) + imag(p)*imag(p)) / (kmod * kmod)
					if math.Abs(power-2) > 1e-9 {
						t.Fatalf("%v %v: symbol %d subcarrier %d power %g", conv, ch, s, k, power)
					}
				}
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, mode := range []wifi.Mode{
		{Modulation: wifi.QAM16, CodeRate: wifi.Rate12},
		{Modulation: wifi.QAM64, CodeRate: wifi.Rate34},
		{Modulation: wifi.QAM256, CodeRate: wifi.Rate56},
	} {
		plan, err := NewPlan(wifi.ConventionPaper, mode, Channel(6))
		if err != nil {
			t.Fatal(err)
		}
		payload := bits.RandomBytes(rng, 150+rng.Intn(300))
		frame, err := (&Encoder{Plan: plan}).Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		wave, err := frame.Waveform()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(wifi.ConventionPaper, mode, Channel(6), wave, 0)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(got) != len(payload) {
			t.Fatalf("%v: %d bytes, want %d", mode, len(got), len(payload))
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Fatalf("%v: mismatch at %d", mode, i)
			}
		}
	}
}

func TestBandPowerDrop40MHz(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mode := wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}
	ch := Channel(2) // -12 MHz: pilot-free window, full suppression
	plan, err := NewPlan(wifi.ConventionPaper, mode, ch)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := (&Encoder{Plan: plan}).Encode(bits.RandomBytes(rng, 600))
	if err != nil {
		t.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ch.BandHz()
	inBand, err := dsp.BandPower(wave, SampleRate, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	refLo, refHi := Channel(7).BandHz()
	ref, err := dsp.BandPower(wave, SampleRate, refLo, refHi)
	if err != nil {
		t.Fatal(err)
	}
	if drop := dsp.DB(ref) - dsp.DB(inBand); drop < 10 {
		t.Fatalf("40 MHz notch only %.1f dB deep", drop)
	}
}

func TestOverheadTable40MHz(t *testing.T) {
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		rows, err := OverheadTable(conv)
		if err != nil {
			t.Fatalf("%v: %v", conv, err)
		}
		if len(rows) != 14 {
			t.Fatalf("%d rows", len(rows))
		}
		for _, r := range rows {
			// Pilot-free CH2 pins 8 subcarriers, pilot-bearing CH5 pins 7.
			perSC := 0
			switch r.Mode.Modulation {
			case wifi.QAM16:
				perSC = 2
			case wifi.QAM64:
				perSC = 4
			case wifi.QAM256:
				perSC = 6
			}
			want := 8 * perSC
			if r.Channel == Channel(5) {
				want = 7 * perSC
			}
			if r.ExtraBits != want {
				t.Errorf("%v %v %v: %d extra bits, want %d", conv, r.Mode, r.Channel, r.ExtraBits, want)
			}
			// 40 MHz loss always below the 20 MHz worst case.
			if r.LossFraction >= 0.1458 {
				t.Errorf("%v %v: loss %.4f not below the 20 MHz bound", r.Mode, r.Channel, r.LossFraction)
			}
		}
	}
}

func TestHT40EncoderValidation(t *testing.T) {
	if _, err := (&Encoder{}).Encode([]byte{1}); err == nil {
		t.Error("nil plan accepted")
	}
	plan, err := NewPlan(wifi.ConventionIEEE, wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, Channel(1))
	if err != nil {
		t.Fatal(err)
	}
	enc := &Encoder{Plan: plan}
	if _, err := enc.Encode(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := NewPlan(wifi.ConventionIEEE, wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, Channel(9)); err == nil {
		t.Error("channel 9 accepted")
	}
}

func TestHT40DecodeValidation(t *testing.T) {
	mode := wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}
	if _, err := Decode(wifi.ConventionIEEE, mode, Channel(1), make([]complex128, 100), 0); err == nil {
		t.Error("partial symbol accepted")
	}
	if _, err := Decode(wifi.ConventionIEEE, mode, Channel(1), nil, 0); err == nil {
		t.Error("empty waveform accepted")
	}
}

func TestHT40PilotMapping(t *testing.T) {
	data := make([]complex128, NumDataSubcarriers)
	freq, err := SubcarrierMap(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All six pilots energized, DC empty.
	for _, k := range []int{-53, -25, -11, 11, 25, 53} {
		if freq[bin(k)] == 0 {
			t.Errorf("pilot %d not energized", k)
		}
	}
	if freq[0] != 0 {
		t.Error("DC carries energy")
	}
}
