package sledzig

// One benchmark per table and figure of the paper's evaluation section
// (see DESIGN.md's experiment index), plus core-pipeline micro-benchmarks.
// Each experiment bench regenerates its table/figure once per iteration
// and reports a headline metric from it, so `go test -bench .` doubles as
// a compact reproduction run.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sledzig/internal/baseline"
	"sledzig/internal/bits"
	"sledzig/internal/core"
	"sledzig/internal/dsp"
	"sledzig/internal/exp"
	"sledzig/internal/ht40"
	"sledzig/internal/mac"
	"sledzig/internal/wifi"
	"sledzig/internal/zigbee"
)

func BenchmarkTheoryPowerReduction(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, r := range exp.TheoreticalReductions() {
			sink += r.ComputedDB
		}
	}
	b.ReportMetric(wifi.PowerReductionDB(wifi.QAM256), "dB-QAM256")
	_ = sink
}

func BenchmarkTableIISignificantBits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.TableII(wifi.ConventionPaper); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIIExtraBits(b *testing.B) {
	var rows []core.TableRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.OverheadTable(wifi.ConventionPaper)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].ExtraBitsCH13), "extra-bits-QAM16")
}

func BenchmarkTableIVThroughputLoss(b *testing.B) {
	var rows []core.TableRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = core.OverheadTable(wifi.ConventionPaper)
		if err != nil {
			b.Fatal(err)
		}
	}
	minLoss := 1.0
	for _, r := range rows {
		if r.LossCH4 < minLoss {
			minLoss = r.LossCH4
		}
	}
	b.ReportMetric(100*minLoss, "min-loss-%")
}

func BenchmarkFig5bSpectrum(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		spec, err := exp.Fig5b(wifi.ConventionPaper,
			wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}, core.CH2, 1)
		if err != nil {
			b.Fatal(err)
		}
		drop = spec.BandDropDB()
	}
	b.ReportMetric(drop, "dB-drop")
}

func BenchmarkFig11SubcarrierCount(b *testing.B) {
	var fig *exp.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = exp.Fig11(wifi.ConventionPaper, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	// CH1 RSSI with the paper-recommended 7 subcarriers.
	b.ReportMetric(fig.Series[0].At(7), "dBm-CH1-7sc")
}

func BenchmarkFig12RSSIReduction(b *testing.B) {
	var fig *exp.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = exp.Fig12(wifi.ConventionPaper, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	normal := fig.Series[0].At(4)
	q256 := fig.Series[3].At(4)
	b.ReportMetric(normal-q256, "dB-drop-CH4-QAM256")
}

func BenchmarkFig13ZigBeeRSSI(b *testing.B) {
	var fig *exp.Figure
	for i := 0; i < b.N; i++ {
		fig = exp.Fig13()
	}
	b.ReportMetric(fig.Series[0].At(31), "dBm-0.5m-gain31")
}

func benchThroughputOpts() exp.ThroughputOptions {
	return exp.ThroughputOptions{Convention: wifi.ConventionPaper, Seed: 1, Duration: 2}
}

func BenchmarkFig14aThroughputVsDistance(b *testing.B) {
	var fig *exp.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = exp.Fig14(core.CH3, benchThroughputOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	// Where the QAM-256 curve recovers 90% of the 63 kbit/s baseline.
	b.ReportMetric(fig.Series[3].CrossoverX(0.9*63), "m-crossover-QAM256")
}

func BenchmarkFig14bThroughputVsDistance(b *testing.B) {
	var fig *exp.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = exp.Fig14(core.CH4, benchThroughputOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig.Series[3].At(1), "kbps-QAM256-at-1m")
}

func BenchmarkFig15ThroughputVsLinkDistance(b *testing.B) {
	var fig *exp.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = exp.Fig15(benchThroughputOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig.Series[0].At(1.6), "kbps-normal-at-1.6m")
}

func BenchmarkFig16ThroughputVsTraffic(b *testing.B) {
	var pts []exp.Fig16Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = exp.Fig16(benchThroughputOpts(), 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Mean QAM-256 throughput at 70% duty (paper: 34.5 kbit/s).
	for _, p := range pts {
		if p.Variant == "QAM-256" && p.DutyRatio == 0.7 {
			b.ReportMetric(p.Stats.Mean, "kbps-QAM256-70%")
		}
	}
}

func BenchmarkFig17WiFiRxRSSI(b *testing.B) {
	var fig *exp.Figure
	for i := 0; i < b.N; i++ {
		fig = exp.Fig17()
	}
	b.ReportMetric(fig.Series[0].At(0.5)-fig.Series[1].At(0.5), "dB-asymmetry")
}

// --- pipeline micro-benchmarks ---

func BenchmarkSledZigEncode1500B(b *testing.B) {
	enc, err := NewEncoder(Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH2})
	if err != nil {
		b.Fatal(err)
	}
	payload := bits.RandomBytes(rand.New(rand.NewSource(1)), 1500)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreEncodeTo1500B is the pooled counterpart of
// BenchmarkSledZigEncode1500B: one reused result, scratch from the
// package pools. Compare allocs/op between the two to see the pooling win.
func BenchmarkCoreEncodeTo1500B(b *testing.B) {
	plan, err := core.CachedPlan(wifi.ConventionIEEE, wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate34}, core.CH2)
	if err != nil {
		b.Fatal(err)
	}
	enc := &core.Encoder{Plan: plan}
	payload := bits.RandomBytes(rand.New(rand.NewSource(1)), 1500)
	var res core.EncodeResult
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.EncodeTo(payload, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEncodeBatch measures pooled multi-worker throughput; on a
// multi-core machine it should beat single-goroutine Encode by roughly the
// worker count (the encoder's stages are CPU-bound and share no state
// beyond the read-only plan).
func BenchmarkEngineEncodeBatch(b *testing.B) {
	eng, err := NewEngine(EngineConfig{
		Config:  Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH2},
		Workers: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	const batch = 64
	payloads := make([][]byte, batch)
	rng := rand.New(rand.NewSource(1))
	for i := range payloads {
		payloads[i] = bits.RandomBytes(rng, 1500)
	}
	b.SetBytes(batch * 1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EncodeBatch(context.Background(), payloads); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkAppendWaveform renders into a recycled buffer — the pooled
// counterpart of BenchmarkWaveformSynthesis.
func BenchmarkAppendWaveform(b *testing.B) {
	enc, err := NewEncoder(Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH2})
	if err != nil {
		b.Fatal(err)
	}
	frame, err := enc.Encode(bits.RandomBytes(rand.New(rand.NewSource(1)), 1000))
	if err != nil {
		b.Fatal(err)
	}
	var buf []complex128
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = frame.AppendWaveform(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaveformSynthesis(b *testing.B) {
	enc, err := NewEncoder(Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH2})
	if err != nil {
		b.Fatal(err)
	}
	frame, err := enc.Encode(bits.RandomBytes(rand.New(rand.NewSource(1)), 1000))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frame.Waveform(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullRoundTrip(b *testing.B) {
	enc, err := NewEncoder(Config{Modulation: QAM16, CodeRate: Rate12, Channel: CH4})
	if err != nil {
		b.Fatal(err)
	}
	dec, err := NewDecoder(Config{})
	if err != nil {
		b.Fatal(err)
	}
	payload := bits.RandomBytes(rand.New(rand.NewSource(1)), 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := enc.Encode(payload)
		if err != nil {
			b.Fatal(err)
		}
		wave, err := frame.Waveform()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Decode(wave); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReceiverDecode1500B measures the pooled receive chain — one
// reused RxResult, scratch from the package pools — over a 1500-byte
// QAM-64 r=3/4 frame. The steady state must stay within single-digit
// allocs/op (the SIGNAL-field decode keeps a few small slices).
func BenchmarkReceiverDecode1500B(b *testing.B) {
	benchmarkReceiverDecode(b, QAM64, false)
}

// BenchmarkReceiverDecodeSoft1500B is BenchmarkReceiverDecode1500B on the
// soft chain over a QAM-256 r=3/4 frame, the mode where the max-log
// demapper's search is widest.
func BenchmarkReceiverDecodeSoft1500B(b *testing.B) {
	benchmarkReceiverDecode(b, QAM256, true)
}

func benchmarkReceiverDecode(b *testing.B, m Modulation, soft bool) {
	enc, err := NewEncoder(Config{Modulation: m, CodeRate: Rate34, Channel: CH2})
	if err != nil {
		b.Fatal(err)
	}
	frame, err := enc.Encode(bits.RandomBytes(rand.New(rand.NewSource(1)), 1500))
	if err != nil {
		b.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		b.Fatal(err)
	}
	rx := wifi.Receiver{Convention: wifi.ConventionIEEE, Seed: wifi.DefaultScramblerSeed, Soft: soft}
	var res wifi.RxResult
	b.SetBytes(1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rx.ReceiveInto(wave, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSledZigDecode1500B is the full public decode path — receive,
// channel detection, constraint stripping, descrambling and EVM — with a
// fresh result per frame.
func BenchmarkSledZigDecode1500B(b *testing.B) {
	enc, err := NewEncoder(Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH2})
	if err != nil {
		b.Fatal(err)
	}
	frame, err := enc.Encode(bits.RandomBytes(rand.New(rand.NewSource(1)), 1500))
	if err != nil {
		b.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		b.Fatal(err)
	}
	dec, err := NewDecoder(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(wave); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDecodeBatch is the decode counterpart of
// BenchmarkEngineEncodeBatch: pooled multi-worker demodulation of a batch
// of 1500-byte frames.
func BenchmarkEngineDecodeBatch(b *testing.B) {
	eng, err := NewEngine(EngineConfig{
		Config:  Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH2},
		Workers: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	const batch = 16
	payloads := make([][]byte, batch)
	rng := rand.New(rand.NewSource(1))
	for i := range payloads {
		payloads[i] = bits.RandomBytes(rng, 1500)
	}
	frames, err := eng.EncodeBatch(context.Background(), payloads)
	if err != nil {
		b.Fatal(err)
	}
	waves := make([][]complex128, batch)
	for i, f := range frames {
		if waves[i], err = f.Waveform(); err != nil {
			b.Fatal(err)
		}
	}
	// An untimed batch grows the workers' receive scratch first, so
	// allocs/op reads the per-batch cost whatever the iteration count.
	if _, err := eng.DecodeBatch(context.Background(), waves); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(batch * 1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.DecodeBatch(context.Background(), waves); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// signedStream converts coded bits to ViterbiDecodeInto's signed input:
// +1 for bit 0, -1 for bit 1, no erasures.
func signedStream(coded []bits.Bit) []int8 {
	out := make([]int8, len(coded))
	for i, c := range coded {
		out[i] = 1 - 2*int8(c)
	}
	return out
}

// BenchmarkViterbiDecode is the hard decoder with a fresh output slice per
// call.
func BenchmarkViterbiDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := bits.Random(rng, 1000)
	mother := signedStream(wifi.ConvolutionalEncode(data))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wifi.ViterbiDecodeInto(nil, mother, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbiDecodeInto is the table-driven pooled decoder; after the
// trellis tables and pool warm up it must run at 0 allocs/op.
func BenchmarkViterbiDecodeInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := bits.Random(rng, 1000)
	mother := signedStream(wifi.ConvolutionalEncode(data))
	dst := make([]bits.Bit, 0, len(data))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wifi.ViterbiDecodeInto(dst, mother, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbiDecodeSoftInto covers the soft-decision path under the
// same zero-allocation requirement.
func BenchmarkViterbiDecodeSoftInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := bits.Random(rng, 1000)
	coded := wifi.ConvolutionalEncode(data)
	llrs := make([]float64, len(coded))
	for i, c := range coded {
		if c == 1 {
			llrs[i] = -2.0 + rng.NormFloat64()*0.3
		} else {
			llrs[i] = 2.0 + rng.NormFloat64()*0.3
		}
	}
	dst := make([]bits.Bit, 0, len(data))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wifi.ViterbiDecodeSoftInto(dst, llrs, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFTPlanForward64 exercises the cached 64-point plan — the inner
// loop of every OFDM symbol — which must not allocate.
func BenchmarkFFTPlanForward64(b *testing.B) {
	plan, err := dsp.PlanFor(64)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Forward(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMACSimulationSecond(b *testing.B) {
	profile := mac.WiFiProfile{PreambleDBm: -60, DataDBm: -68, PilotDBm: -69}
	for i := 0; i < b.N; i++ {
		if _, err := mac.Run(mac.Config{
			Seed: int64(i), Duration: 1, DWZ: 4, DZ: 1, Profile: profile,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateCoexistence times one coexistence-sweep op: deriving
// the SledZig WiFi profile from a rendered waveform, then half a
// simulated second of the MAC model at near range.
func BenchmarkSimulateCoexistence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateCoexistence(CoexistenceConfig{
			Channel: CH4, Modulation: QAM16, CodeRate: Rate12, UseSledZig: true,
			DWZ: 0.5, DZ: 1, DutyRatio: 0.7, Duration: 0.5, Seed: int64(i%64) + 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZigBeeRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	payload := bits.RandomBytes(rng, 100)
	wave, err := zigbee.Transmitter{}.Transmit(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (zigbee.Receiver{}).Receive(wave); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks (design choices DESIGN.md calls out) ---

// BenchmarkAblationSubcarrierCount quantifies the Fig. 11 design choice in
// end-to-end terms: in-band RSSI when pinning 5, 6, 7 or 8 data
// subcarriers of CH2.
func BenchmarkAblationSubcarrierCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig11(wifi.ConventionPaper, 1)
		if err != nil {
			b.Fatal(err)
		}
		ch2 := fig.Series[1]
		b.ReportMetric(ch2.At(6)-ch2.At(7), "dB-gain-6to7")
		b.ReportMetric(ch2.At(7)-ch2.At(8), "dB-gain-7to8")
	}
}

// BenchmarkAblationPilotChannel contrasts pilot-bearing CH2 against
// pilot-free CH4 under QAM-256 — the paper's "work on CH4" recommendation.
func BenchmarkAblationPilotChannel(b *testing.B) {
	payload := bits.RandomBytes(rand.New(rand.NewSource(1)), 400)
	var ch2, ch4 float64
	for i := 0; i < b.N; i++ {
		var err error
		ch2, err = MeasureBandReduction(Config{Modulation: QAM256, CodeRate: Rate34, Channel: CH2}, payload)
		if err != nil {
			b.Fatal(err)
		}
		ch4, err = MeasureBandReduction(Config{Modulation: QAM256, CodeRate: Rate34, Channel: CH4}, payload)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ch2, "dB-CH2")
	b.ReportMetric(ch4, "dB-CH4")
}

// BenchmarkAblationPilotSuppression sweeps the despreader's tone-rejection
// parameter to show how much of the Fig. 16 QAM-256 advantage rides on it.
func BenchmarkAblationPilotSuppression(b *testing.B) {
	profile := mac.WiFiProfile{PreambleDBm: -60, DataDBm: -80, PilotDBm: -69}
	for _, supp := range []float64{3, 9, 15} {
		var tput float64
		for i := 0; i < b.N; i++ {
			res, err := mac.Run(mac.Config{
				Seed: 1, Duration: 2, DWZ: 1, DZ: 0.5,
				Profile:            profile,
				PilotSuppressionDB: supp,
				CCAMode:            mac.CCACarrierOnly,
				WiFiFrameAirtime:   6e-3,
			})
			if err != nil {
				b.Fatal(err)
			}
			tput = res.ZigBeeThroughputBps / 1e3
		}
		b.ReportMetric(tput, fmt.Sprintf("kbps-supp%.0fdB", supp))
	}
}

// BenchmarkTableIVMinSNR regenerates the min-SNR column through the full
// waveform chain.
func BenchmarkTableIVMinSNR(b *testing.B) {
	var rows []exp.MinSNRRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.MinSNRSweep(wifi.ConventionPaper, 1, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MeasuredDB, "dB-QAM16r12")
}

// BenchmarkPhyLevelMixing regenerates the waveform-level validation.
func BenchmarkPhyLevelMixing(b *testing.B) {
	var res *exp.PhyLevelResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.RunPhyLevel(exp.PhyLevelConfig{Seed: 1, Trials: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.NormalPER, "PER-normal")
	b.ReportMetric(res.SledZigPER, "PER-sledzig")
}

// BenchmarkFleetSweep regenerates the multi-node extension experiment.
func BenchmarkFleetSweep(b *testing.B) {
	var pts []exp.FleetPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = exp.FleetSweep(exp.ThroughputOptions{Seed: 1, Duration: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.SledZig && p.Nodes == 8 {
			b.ReportMetric(p.Throughput, "kbps-8nodes-sledzig")
		}
	}
}

// BenchmarkHT40Encode measures the 40 MHz SledZig pipeline.
func BenchmarkHT40Encode(b *testing.B) {
	plan, err := ht40.NewPlan(wifi.ConventionPaper,
		wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}, ht40.Channel(2))
	if err != nil {
		b.Fatal(err)
	}
	enc := &ht40.Encoder{Plan: plan}
	payload := bits.RandomBytes(rand.New(rand.NewSource(1)), 1000)
	b.SetBytes(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineComparison regenerates the mechanism comparison.
func BenchmarkBaselineComparison(b *testing.B) {
	payload := baseline.RandomPayload(1, 400)
	var cmp *baseline.Comparison
	var err error
	for i := 0; i < b.N; i++ {
		cmp, err = baseline.Compare(wifi.ConventionPaper,
			wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}, core.CH4, payload)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.SledZigDropDB, "dB-sledzig")
	b.ReportMetric(cmp.NullDropDB, "dB-null")
}

// benchmarkCodecEncode drives a registry backend through the public
// facade: Frame construction plus waveform render, the per-frame cost a
// codec-agnostic caller pays.
func benchmarkCodecEncode(b *testing.B, name string, payloadLen int) {
	enc, err := NewEncoder(Config{Channel: CH2, Codec: name})
	if err != nil {
		b.Fatal(err)
	}
	payload := bits.RandomBytes(rand.New(rand.NewSource(1)), payloadLen)
	b.SetBytes(int64(payloadLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := enc.Encode(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := frame.Waveform(); err != nil {
			b.Fatal(err)
		}
	}
}

// The per-backend encode benchmarks sit in the allocation-gated set next
// to BenchmarkSledZigEncode1500B, so a new backend cannot creep
// allocations into the shared facade path unnoticed.
func BenchmarkCodecOOKEncode400B(b *testing.B)    { benchmarkCodecEncode(b, CodecOOK, 400) }
func BenchmarkCodecOfdmFiEncode400B(b *testing.B) { benchmarkCodecEncode(b, CodecOfdmFi, 400) }

func benchmarkCodecDecode(b *testing.B, name string, payloadLen int) {
	cfg := Config{Channel: CH2, Codec: name}
	enc, err := NewEncoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := enc.Encode(bits.RandomBytes(rand.New(rand.NewSource(1)), payloadLen))
	if err != nil {
		b.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		b.Fatal(err)
	}
	// One warm-up decode grows the pooled buffers, so the measured ops
	// (and the allocation gate) see the steady state even at -benchtime
	// 100x.
	if _, err := dec.Decode(wave); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(payloadLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(wave); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecOOKDecode400B(b *testing.B)    { benchmarkCodecDecode(b, CodecOOK, 400) }
func BenchmarkCodecOfdmFiDecode400B(b *testing.B) { benchmarkCodecDecode(b, CodecOfdmFi, 400) }
