package exp

import (
	"math"
	"testing"

	"sledzig/internal/core"
	"sledzig/internal/wifi"
)

func TestTheoreticalReductionsMatchPaper(t *testing.T) {
	for _, r := range TheoreticalReductions() {
		if math.Abs(r.ComputedDB-r.PaperDB) > 0.05 {
			t.Errorf("%v: computed %.2f dB vs paper %.1f dB", r.Modulation, r.ComputedDB, r.PaperDB)
		}
	}
}

func TestTableIIExactMatch(t *testing.T) {
	got, want, err := TableII(wifi.ConventionPaper)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d positions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestDeriveProfileAnchors(t *testing.T) {
	// Normal WiFi on a pilot-bearing channel must land near the paper's
	// -60 dBm anchor; on CH4 a few dB lower.
	normal := Variant{Name: "n", Mode: wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}}
	p13, err := DeriveProfile(wifi.ConventionPaper, normal, core.CH2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v := p13.TotalPayloadDBm(); v < -62.5 || v > -59 {
		t.Fatalf("normal CH2 in-band %g dBm, want ~-60", v)
	}
	p4, err := DeriveProfile(wifi.ConventionPaper, normal, core.CH4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if diff := p13.TotalPayloadDBm() - p4.TotalPayloadDBm(); diff < 0.5 || diff > 5 {
		t.Fatalf("CH4 should sit a few dB below CH2; diff %g dB", diff)
	}
	// SledZig QAM-256 on CH4 drops by >= 11 dB relative to normal.
	sled := Variant{Name: "s", Mode: wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}, SledZig: true}
	ps, err := DeriveProfile(wifi.ConventionPaper, sled, core.CH4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if drop := p4.TotalPayloadDBm() - ps.TotalPayloadDBm(); drop < 11 {
		t.Fatalf("QAM-256 CH4 drop %g dB, want >= 11", drop)
	}
	// Pilot-bearing channels carry a pilot component; CH4 does not.
	ps13, err := DeriveProfile(wifi.ConventionPaper, sled, core.CH1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(ps13.PilotDBm, -1) {
		t.Fatal("CH1 SledZig profile lost its pilot component")
	}
	if !math.IsInf(ps.PilotDBm, -1) {
		t.Fatal("CH4 SledZig profile has a pilot component")
	}
}

func TestFig12MatchesPaperWithinTolerance(t *testing.T) {
	fig, err := Fig12(wifi.ConventionPaper, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper values per channel (CH1..CH4) per series.
	paper := map[string][4]float64{
		"Normal":  {-60, -60, -60, -64},
		"QAM-16":  {-64, -64, -64, -70},
		"QAM-64":  {-66, -66, -66, -75},
		"QAM-256": {-68, -68, -68, -78},
	}
	for _, s := range fig.Series {
		want := paper[s.Name]
		for i := 0; i < 4; i++ {
			if math.Abs(s.Y[i]-want[i]) > 2.5 {
				t.Errorf("%s CH%d: %.1f dBm vs paper %.0f (tolerance 2.5 dB)", s.Name, i+1, s.Y[i], want[i])
			}
		}
	}
}

func TestFig11SevenSubcarriersSaturate(t *testing.T) {
	fig, err := Fig11(wifi.ConventionPaper, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if s.Name == "CH4" {
			// 5 subcarriers within ~1.5 dB of 6.
			if math.Abs(s.At(5)-s.At(6)) > 1.5 {
				t.Errorf("CH4: 5 vs 6 subcarriers differ by %.1f dB", math.Abs(s.At(5)-s.At(6)))
			}
			continue
		}
		// Adding the 8th subcarrier must not help more than the repeat
		// variation (the paper: flat from 7 to 8).
		if s.At(7)-s.At(8) > 2 {
			t.Errorf("%s: 8 subcarriers still improve by %.1f dB over 7", s.Name, s.At(7)-s.At(8))
		}
		// But 6 -> full window must show a real improvement vs 4.
		if s.At(4)-s.At(7) < 1 {
			t.Errorf("%s: pinning 7 vs 4 subcarriers only buys %.1f dB", s.Name, s.At(4)-s.At(7))
		}
	}
}

func TestFig13Anchors(t *testing.T) {
	fig := Fig13()
	// Series 0 is dZ=0.5m: -75 dBm at gain 31.
	if v := fig.Series[0].At(31); math.Abs(v-(-74.9)) > 0.5 {
		t.Fatalf("0.5 m gain 31: %.1f dBm", v)
	}
	// dZ=3m at gain 25 within 3 dB of the floor.
	if v := fig.Series[3].At(25); v < -91 || v > -88 {
		t.Fatalf("3 m gain 25: %.1f dBm, want near the floor", v)
	}
}

func TestFig17Asymmetry(t *testing.T) {
	fig := Fig17()
	w := fig.Series[0].At(0.5)
	z := fig.Series[1].At(0.5)
	if a := w - z; a < 25 || a > 35 {
		t.Fatalf("asymmetry at 0.5 m: %.1f dB", a)
	}
}

func TestFig5bNotchDepth(t *testing.T) {
	for _, tc := range []struct {
		mod     wifi.Modulation
		rate    wifi.CodeRate
		ch      core.ZigBeeChannel
		minDrop float64
	}{
		{wifi.QAM16, wifi.Rate12, core.CH2, 3.5},
		{wifi.QAM256, wifi.Rate34, core.CH4, 12},
	} {
		spec, err := Fig5b(wifi.ConventionPaper, wifi.Mode{Modulation: tc.mod, CodeRate: tc.rate}, tc.ch, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d := spec.BandDropDB(); d < tc.minDrop {
			t.Errorf("%v %v: band drop %.1f dB < %.1f", tc.mod, tc.ch, d, tc.minDrop)
		}
		// Out-of-channel spectrum is untouched (within measurement noise):
		// the mean per-bin PSD difference away from the notch stays small.
		lo, hi := tc.ch.BandHz()
		var diff float64
		var n int
		for i, f := range spec.FreqMHz {
			hz := f * 1e6
			if hz >= -8e6 && hz <= 8e6 && (hz < lo-1e6 || hz > hi+1e6) {
				diff += spec.NormalDB[i] - spec.SledZigDB[i]
				n++
			}
		}
		if avg := diff / float64(n); math.Abs(avg) > 0.6 {
			t.Errorf("%v %v: out-of-channel PSD moved by %.2f dB on average", tc.mod, tc.ch, avg)
		}
	}
}

func TestFig14Ordering(t *testing.T) {
	opts := ThroughputOptions{Seed: 1, Duration: 3}
	fig, err := Fig14(core.CH3, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseline := 63.0
	var cross [4]float64
	for i, s := range fig.Series {
		cross[i] = s.CrossoverX(0.8 * baseline)
	}
	// Normal must recover much later than every SledZig variant.
	for i := 1; i < 4; i++ {
		if !(cross[i] < cross[0]) {
			t.Fatalf("series %d crossover %.1f m not before normal's %.1f m", i, cross[i], cross[0])
		}
	}
	// Higher QAM never recovers later than lower QAM.
	if cross[3] > cross[1] || cross[2] > cross[1] {
		t.Fatalf("crossover ordering violated: %v", cross)
	}
}

func TestFig16Ordering(t *testing.T) {
	pts, err := Fig16(ThroughputOptions{Seed: 1, Duration: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	means := map[string]map[float64]float64{}
	for _, p := range pts {
		if means[p.Variant] == nil {
			means[p.Variant] = map[float64]float64{}
		}
		means[p.Variant][p.DutyRatio] = p.Stats.Mean
	}
	// At 70% duty: QAM-256 and QAM-64 far above normal.
	if !(means["QAM-256"][0.7] > means["Normal"][0.7]+20) {
		t.Fatalf("QAM-256 at 70%%: %.1f vs normal %.1f", means["QAM-256"][0.7], means["Normal"][0.7])
	}
	if !(means["QAM-64"][0.7] > means["Normal"][0.7]+20) {
		t.Fatalf("QAM-64 at 70%%: %.1f vs normal %.1f", means["QAM-64"][0.7], means["Normal"][0.7])
	}
	// Normal decays monotonically (within noise) and collapses at 90%.
	if means["Normal"][0.9] > 5 {
		t.Fatalf("normal WiFi at 90%% duty still gives %.1f kbit/s", means["Normal"][0.9])
	}
}

func TestBoxStats(t *testing.T) {
	s := NewBoxStats([]float64{1, 2, 3, 4, 5})
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("stats %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles %+v", s)
	}
	if z := NewBoxStats(nil); z.Max != 0 {
		t.Fatal("empty stats not zero")
	}
}

func TestSeriesHelpers(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 20)
	s.Add(3, 30)
	if s.At(2) != 20 || s.At(99) != 30 {
		t.Fatal("At lookup wrong")
	}
	if s.CrossoverX(15) != 2 {
		t.Fatal("CrossoverX wrong")
	}
	if !math.IsNaN(s.CrossoverX(99)) {
		t.Fatal("unreachable crossover should be NaN")
	}
}

func TestFigureString(t *testing.T) {
	fig := &Figure{ID: "T", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "a", X: []float64{1}, Y: []float64{2}}}}
	out := fig.String()
	if len(out) == 0 {
		t.Fatal("empty render")
	}
}

// TestPhyLevelMixing is the repository's strongest validation: real WiFi
// waveforms mixed onto a real ZigBee frame at sample level. Under normal
// WiFi at 1.2 m every frame dies; under the SledZig waveform the
// unsynchronized receiver decodes essentially everything.
func TestPhyLevelMixing(t *testing.T) {
	res, err := RunPhyLevel(PhyLevelConfig{Seed: 1, Trials: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.NormalPER < 0.9 {
		t.Fatalf("normal WiFi PER %.2f, expected ~1 at SINR %.1f dB", res.NormalPER, res.NormalSINRDB)
	}
	if res.SledZigPER > 0.25 {
		t.Fatalf("SledZig PER %.2f, expected ~0 at SINR %.1f dB", res.SledZigPER, res.SledZigSINRDB)
	}
	if res.NormalInBandDBm-res.SledZigInBandDBm < 11 {
		t.Fatalf("in-band drop %.1f dB too small", res.NormalInBandDBm-res.SledZigInBandDBm)
	}
}

// TestPhyLevelPilotChannel repeats the mixing experiment on a
// pilot-bearing channel at a geometry where the smaller (pilot-limited)
// reduction still flips the outcome.
func TestPhyLevelPilotChannel(t *testing.T) {
	res, err := RunPhyLevel(PhyLevelConfig{
		Seed:        2,
		Trials:      8,
		Channel:     core.CH2,
		Mode:        wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34},
		ZigBeeRxDBm: -72,
		DWZ:         2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NormalPER < 0.7 {
		t.Fatalf("normal WiFi PER %.2f at SINR %.1f dB", res.NormalPER, res.NormalSINRDB)
	}
	if res.SledZigPER > 0.4 {
		t.Fatalf("SledZig PER %.2f at SINR %.1f dB", res.SledZigPER, res.SledZigSINRDB)
	}
}

func TestMinSNRWithinHardDecisionMargin(t *testing.T) {
	rows, err := MinSNRSweep(wifi.ConventionPaper, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.IsNaN(r.MeasuredDB) {
			t.Errorf("%v: never reached PER <= 0.1", r.Mode)
			continue
		}
		diff := r.MeasuredDB - r.PaperDB
		if diff < -2 || diff > 6 {
			t.Errorf("%v: measured %0.f dB vs paper %0.f dB (hard-decision margin exceeded)",
				r.Mode, r.MeasuredDB, r.PaperDB)
		}
	}
	// Higher-order modes need monotonically more SNR.
	for i := 1; i < len(rows); i++ {
		if rows[i].MeasuredDB < rows[i-1].MeasuredDB-2 {
			t.Errorf("min SNR not roughly monotone: %v", rows)
		}
	}
}

// TestMinSNRSweepPinned pins the Table IV min-SNR sweep that
// EXPERIMENTS.md documents (`cmd/experiments -only minsnr`: paper
// convention, seed 1, 20 frames per point), both columns of every row.
// Each mode draws from its own rng, so the result does not depend on
// GOMAXPROCS. A change here is a change to the receive chains' decisions.
func TestMinSNRSweepPinned(t *testing.T) {
	rows, err := MinSNRSweep(wifi.ConventionPaper, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		mode       wifi.Mode
		hard, soft float64
	}{
		{wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, 15, 13},
		{wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate34}, 17, 15},
		{wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}, 22, 18},
		{wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate34}, 22, 20},
		{wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate56}, 25, 21},
		{wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}, 29, 27},
		{wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate56}, 29, 27},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Mode != w.mode || r.MeasuredDB != w.hard || r.SoftDB != w.soft {
			t.Errorf("row %d: %v hard %v soft %v dB, want %v hard %v soft %v dB",
				i, r.Mode, r.MeasuredDB, r.SoftDB, w.mode, w.hard, w.soft)
		}
	}
}

func TestFleetSweepScalesWithSledZig(t *testing.T) {
	pts, err := FleetSweep(ThroughputOptions{Seed: 1, Duration: 4})
	if err != nil {
		t.Fatal(err)
	}
	tput := map[bool]map[int]float64{false: {}, true: {}}
	for _, p := range pts {
		tput[p.SledZig][p.Nodes] = p.Throughput
	}
	// Stock AP at 3 m silences the fleet regardless of size.
	for n, v := range tput[false] {
		if v > 5 {
			t.Errorf("stock AP: %d nodes reach %.1f kbit/s, expected ~0", n, v)
		}
	}
	// SledZig aggregate grows with node count.
	if !(tput[true][8] > tput[true][1]) {
		t.Fatalf("fleet throughput does not scale: %v", tput[true])
	}
}

func TestCCAModeAblationShape(t *testing.T) {
	rows, err := RunCCAModeAblation(ThroughputOptions{Seed: 1, Duration: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Carrier-only CCA can never reduce throughput below energy-CCA:
		// it strictly removes a reason to defer.
		if r.CarrierKbps+1 < r.EnergyKbps {
			t.Fatalf("%s at %.0f m: carrier-only %.1f below energy %.1f",
				r.Variant, r.DWZ, r.CarrierKbps, r.EnergyKbps)
		}
	}
	// At 8 m both modes converge to the baseline for both variants.
	for _, r := range rows {
		if r.DWZ == 8 && (r.EnergyKbps < 55 || r.CarrierKbps < 55) {
			t.Fatalf("%s at 8 m should reach baseline: %+v", r.Variant, r)
		}
	}
}

func TestPERCurveWaterfall(t *testing.T) {
	fig, err := PERCurve(wifi.ConventionPaper,
		wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate34}, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	hard, soft := fig.Series[0], fig.Series[1]
	// Both waterfalls start near 1 and end near 0.
	for _, s := range []Series{hard, soft} {
		if s.Y[0] < 0.8 {
			t.Fatalf("%s: PER %.2f at the lowest SNR, want ~1", s.Name, s.Y[0])
		}
		if s.Y[len(s.Y)-1] > 0.2 {
			t.Fatalf("%s: PER %.2f at the highest SNR, want ~0", s.Name, s.Y[len(s.Y)-1])
		}
	}
	// The soft chain is at least as good at every point, within sampling
	// noise.
	for i := range hard.X {
		if soft.Y[i] > hard.Y[i]+0.25 {
			t.Fatalf("soft PER %.2f above hard %.2f at %g dB", soft.Y[i], hard.Y[i], hard.X[i])
		}
	}
	if g := SoftGainDB(fig); g < 0 {
		t.Fatalf("soft gain %g dB negative", g)
	}
}

func TestFig15NormalCollapsesFirst(t *testing.T) {
	fig, err := Fig15(ThroughputOptions{Seed: 1, Duration: 3})
	if err != nil {
		t.Fatal(err)
	}
	normal := fig.Series[0]
	q256 := fig.Series[3]
	// Normal WiFi near-baseline at d_Z = 1 m, collapsed by 2 m.
	if normal.At(1) < 50 {
		t.Fatalf("normal at 1 m: %.1f kbit/s", normal.At(1))
	}
	if normal.At(2) > 10 {
		t.Fatalf("normal at 2 m: %.1f kbit/s, expected collapse", normal.At(2))
	}
	// SledZig QAM-256 outlives normal at every stretched distance.
	for i := range normal.X {
		if q256.Y[i]+5 < normal.Y[i] {
			t.Fatalf("QAM-256 (%.1f) below normal (%.1f) at %.1f m", q256.Y[i], normal.Y[i], normal.X[i])
		}
	}
}
