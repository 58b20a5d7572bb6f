package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"sledzig"
	"sledzig/internal/codec"
	"sledzig/internal/core"
	"sledzig/internal/exp"
	"sledzig/internal/mac"
	"sledzig/internal/wifi"
)

// The traced run. For every workload it replays the first ops of the
// workload's sequence (same seed, same inputs):
//
//   - once through the facade, untimed, recording the outputs;
//   - then in rounds: each op through the facade and as direct calls into
//     each layer, back to back and alternating which goes first, so host
//     drift and warm caches favour neither side;
//   - and each op through the facade again with an obs registry
//     installed, whose stage histograms (core.encode.*, wifi.tx.*,
//     wifi.rx.*, core.decode.*) give the in-program stage times and whose
//     mean against the paired facade mean is the tracing overhead.
//
// The layer path must reproduce the recorded waveforms and payloads
// exactly; a mismatch counts as a failed op. facade.<w>_unattributed_us
// is the facade mean minus the layer means: facade glue, result copies
// and engine hand-offs. A final allocation pass brackets single calls
// with MemStats. All four workloads are measured on every traced run,
// whichever --workload names, so each run reports every layer.

const (
	// allocOps bounds the allocation pass (MemStats stops the world).
	allocOps = 32
	conv     = wifi.ConventionIEEE
	txSeed   = wifi.DefaultScramblerSeed
)

// acc accumulates the durations of one kind of timed call.
type acc struct {
	total time.Duration
	n     int
}

func (a *acc) add(d time.Duration) { a.total += d; a.n++ }

func (a acc) us() float64 { return float64(a.total.Nanoseconds()) / 1e3 / float64(max(a.n, 1)) }

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// allocsOf returns the heap allocations fn made.
func allocsOf(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

type ledger struct {
	o       options
	rep     *report
	budget  time.Duration // per workload, for the rounds
	metrics map[string]metric
}

func runLedger(o options) (*report, error) {
	l := &ledger{o: o, rep: &report{}, budget: o.duration() / 6, metrics: map[string]metric{}}
	defer sledzig.SetDefaultMetrics(nil)
	for _, section := range []func() error{l.tx, l.rx, l.codec, l.coexist} {
		if err := section(); err != nil {
			return nil, err
		}
	}
	l.rep.metrics = l.metrics
	return l.rep, nil
}

func (l *ledger) set(name string, v float64, unit string) { l.metrics[name] = metric{v, unit} }

// section is one workload's replay over ops 0..n-1.
type section struct {
	name string
	n    int
	// facade runs op i through the public API; record keeps its outputs
	// for the layer checks.
	facade func(i int, record bool) error
	// layers runs op i as direct layer calls, timing each call itself,
	// and checks the outputs against the recorded ones.
	layers func(i int) error
	// restart, when set, runs after every registry change, untimed (the
	// gateway engine binds its metric handles when its workers start).
	restart func() error
}

// replayed is what a replay measured through the facade.
type replayed struct {
	untraced, traced acc
	snap             sledzig.MetricsSnapshot // the traced passes' registry
}

// replay records the facade outputs, then runs paired and traced rounds
// until the workload's budget is spent (at least once; once only under
// --ops).
func (l *ledger) replay(s section) (replayed, error) {
	var r replayed
	reg := sledzig.NewMetrics()
	use := func(m *sledzig.Metrics) error {
		sledzig.SetDefaultMetrics(m)
		if s.restart != nil {
			return s.restart()
		}
		return nil
	}
	check := func(i int, err error) {
		l.rep.attempted++
		if err != nil {
			l.rep.fail("%s ledger op %d: %v", s.name, i, err)
		}
	}
	facade := func(i int, into *acc) {
		var err error
		into.add(timed(func() { err = s.facade(i, false) }))
		check(i, err)
	}
	if err := use(nil); err != nil {
		return r, err
	}
	for i := range s.n {
		check(i, s.facade(i, true))
	}
	start := time.Now()
	for {
		if err := use(nil); err != nil {
			return r, err
		}
		for i := range s.n {
			if i%2 == 0 {
				facade(i, &r.untraced)
				check(i, s.layers(i))
			} else {
				check(i, s.layers(i))
				facade(i, &r.untraced)
			}
		}
		if err := use(reg); err != nil {
			return r, err
		}
		for i := range s.n {
			facade(i, &r.traced)
		}
		if l.o.maxOps > 0 || time.Since(start) >= l.budget {
			break
		}
	}
	r.snap = reg.Snapshot()
	return r, use(nil)
}

// stageUS is the mean time per traced facade op a stage histogram holds.
func (r replayed) stageUS(stage string) float64 {
	return r.snap.Histograms[stage+".seconds"].Sum * 1e6 / float64(max(r.traced.n, 1))
}

// attribute sets the facade, overhead and unattributed rows of workload w.
func (l *ledger) attribute(w string, r replayed, layersUS, facadeAllocs, layerAllocs float64) {
	l.set("facade."+w+"_us", r.untraced.us(), "us")
	l.set("facade."+w+"_trace_overhead_pct", (r.traced.us()/r.untraced.us()-1)*100, "%")
	l.set("facade."+w+"_unattributed_us", r.untraced.us()-layersUS, "us")
	l.set("facade."+w+"_allocs", facadeAllocs, "count")
	l.set("facade."+w+"_unattributed_allocs", facadeAllocs-layerAllocs, "count")
}

// ---- tx: core.Encoder.EncodeTo, wifi.Frame.AppendWaveform ----

func (l *ledger) tx() error {
	s, err := newTx(l.o.seed, l.o.opLimit)
	if err != nil {
		return err
	}
	encs := make([]core.Encoder, len(modes))
	for i, m := range modes {
		plan, err := core.CachedPlan(conv, wifi.Mode{Modulation: m.mod, CodeRate: m.rate}, m.ch)
		if err != nil {
			return err
		}
		encs[i] = core.Encoder{Plan: plan, Seed: txSeed}
	}
	var res core.EncodeResult
	var buf []complex128
	hashes := make([]uint64, len(s.pool))
	var enc, tx acc
	var extraBits, symbols int
	r, err := l.replay(section{
		name: "tx",
		n:    len(s.pool),
		facade: func(i int, record bool) error {
			_, err := s.render(s.pool[i])
			if record {
				hashes[i] = hashWave(s.buf)
			}
			return err
		},
		layers: func(i int) error {
			in := s.pool[i]
			var err error
			enc.add(timed(func() { err = encs[in.mode].EncodeTo(in.payload, &res) }))
			if err != nil {
				return err
			}
			tx.add(timed(func() { buf, err = res.Frame.AppendWaveform(buf[:0]) }))
			if err != nil {
				return err
			}
			extraBits += len(res.Layout.Positions)
			symbols += res.Frame.NumSymbols
			if hashWave(buf) != hashes[i] {
				return fmt.Errorf("layer waveform differs from the facade's")
			}
			return nil
		},
	})
	if err != nil {
		return err
	}

	var aF, aEnc, aTx float64
	m := min(len(s.pool), allocOps)
	for _, in := range s.pool[:m] {
		aF += allocsOf(func() { _, _ = s.render(in) })
		aEnc += allocsOf(func() { _ = encs[in.mode].EncodeTo(in.payload, &res) })
		aTx += allocsOf(func() { buf, _ = res.Frame.AppendWaveform(buf[:0]) })
	}
	fm := float64(max(m, 1))
	l.attribute("tx", r, enc.us()+tx.us(), aF/fm, (aEnc+aTx)/fm)
	l.set("core.encode_us", enc.us(), "us")
	l.set("core.encode_allocs", aEnc/fm, "count")
	l.set("core.extra_bits_per_frame", float64(extraBits)/float64(max(enc.n, 1)), "count")
	hits, misses := float64(r.snap.Counters["core.layout.cache_hits"]), float64(r.snap.Counters["core.layout.cache_misses"])
	l.set("core.layout_hit_ratio", hits/max(hits+misses, 1), "ratio")
	for _, st := range []string{"layout", "scramble", "solve", "verify"} {
		l.set("core.encode."+st+"_us", r.stageUS("core.encode."+st), "us")
	}
	l.set("wifi.tx_us", tx.us(), "us")
	l.set("wifi.tx_allocs", aTx/fm, "count")
	l.set("wifi.tx.symbols_per_frame", float64(symbols)/float64(max(tx.n, 1)), "count")
	for _, st := range []string{"encode", "interleave", "map", "ifft"} {
		l.set("wifi.tx."+st+"_us", r.stageUS("wifi.tx."+st), "us")
	}
	return nil
}

// ---- rx: wifi.Receiver.ReceiveInto, core.Decoder.DecodeAuto, wifi.SymbolEVM ----

// gatewayStream is a gateway engine fed one capture at a time.
type gatewayStream struct {
	eng *sledzig.Engine
	in  chan []complex128
	out <-chan sledzig.DecodeStreamFrame
}

func openStream() (*gatewayStream, error) {
	eng, err := newGateway()
	if err != nil {
		return nil, err
	}
	g := &gatewayStream{eng: eng, in: make(chan []complex128)}
	g.out = eng.DecodeStream(context.Background(), g.in)
	return g, nil
}

// decode sends one capture and waits for its result.
func (g *gatewayStream) decode(c []complex128) sledzig.DecodeStreamFrame {
	g.in <- c
	return <-g.out
}

func (g *gatewayStream) close() {
	close(g.in)
	for range g.out {
	}
	g.eng.Close()
}

func (l *ledger) rx() error {
	s, err := newRx(l.o.seed, l.o.opLimit)
	if err != nil {
		return err
	}
	s.eng.Close()
	rxr := wifi.Receiver{Seed: txSeed, Convention: conv}
	dec := core.Decoder{Convention: conv}
	var rx wifi.RxResult
	var stream *gatewayStream
	defer func() {
		if stream != nil {
			stream.close()
		}
	}()

	payloads := make([][]byte, len(s.pool))
	service := make([]acc, len(s.pool)) // per capture, for the engine wait split
	var recv, strip, evm acc
	var symbols int
	var evms []float64
	r, err := l.replay(section{
		name: "rx",
		n:    len(s.pool),
		facade: func(i int, record bool) error {
			out := stream.decode(s.captures[i])
			if out.Err != nil {
				return out.Err
			}
			if record {
				payloads[i] = out.Result.Payload
			}
			return checkPayload(out.Result, s.pool[i].payload)
		},
		layers: func(i int) error {
			var err error
			var payload []byte
			var e []float64
			dr := timed(func() { err = rxr.ReceiveInto(s.captures[i], &rx) })
			if err != nil {
				return err
			}
			ds := timed(func() { payload, _, err = dec.DecodeAuto(&rx) })
			if err != nil {
				return err
			}
			de := timed(func() { e = wifi.SymbolEVM(rx.Mode.Modulation, rx.DataPoints) })
			recv.add(dr)
			strip.add(ds)
			evm.add(de)
			service[i].add(dr + ds + de)
			symbols += len(rx.DataPoints)
			evms = append(evms, frameEVM(e))
			if !bytes.Equal(payload, payloads[i]) {
				return fmt.Errorf("layer payload differs from the facade's")
			}
			return nil
		},
		restart: func() error {
			if stream != nil {
				stream.close()
			}
			var err error
			stream, err = openStream()
			return err
		},
	})
	if err != nil {
		return err
	}

	var aF, aRecv, aStrip, aEVM float64
	m := min(len(s.pool), allocOps)
	for _, c := range s.captures[:m] {
		aF += allocsOf(func() { _ = stream.decode(c) })
		aRecv += allocsOf(func() { _ = rxr.ReceiveInto(c, &rx) })
		aStrip += allocsOf(func() { _, _, _ = dec.DecodeAuto(&rx) })
		aEVM += allocsOf(func() { _ = wifi.SymbolEVM(rx.Mode.Modulation, rx.DataPoints) })
	}
	fm := float64(max(m, 1))
	l.attribute("rx", r, recv.us()+strip.us()+evm.us(), aF/fm, (aRecv+aStrip+aEVM)/fm)
	l.set("wifi.rx_us", recv.us(), "us")
	l.set("wifi.rx_allocs", aRecv/fm, "count")
	l.set("wifi.rx.symbols_per_frame", float64(symbols)/float64(max(recv.n, 1)), "count")
	l.set("wifi.rx.evm_db", evmDB(mean(evms)), "dB")
	for _, st := range []string{"sync", "signal", "equalize", "demap", "deinterleave", "viterbi", "descramble"} {
		l.set("wifi.rx."+st+"_us", r.stageUS("wifi.rx."+st), "us")
	}
	l.set("core.strip_us", strip.us(), "us")
	l.set("core.strip_allocs", aStrip/fm, "count")
	l.set("wifi.evm_us", evm.us(), "us")
	for _, st := range []string{"detect", "strip"} {
		l.set("core.decode."+st+"_us", r.stageUS("core.decode."+st), "us")
	}
	return l.engineReplay(s, service)
}

// engineReplay runs the gateway's open loop with a registry installed
// before the engine starts (its workers resolve their stage handles
// then), and splits each arrival's latency into its sequential service
// time and the rest: queueing and dispatch.
func (l *ledger) engineReplay(s *rxState, service []acc) error {
	reg := sledzig.NewMetrics()
	sledzig.SetDefaultMetrics(reg)
	var err error
	if s.eng, err = newGateway(); err != nil {
		return err
	}
	defer s.eng.Close()
	n := int(l.o.seconds / 4 * rxRate)
	if l.o.maxOps > 0 {
		n = min(n, l.o.maxOps)
	}
	g := s.openLoop(max(n, 1), rand.New(rand.NewSource(l.o.seed)), l.rep)
	l.rep.attempted += g.stats.attempted
	var wait []float64
	for i, lat := range g.latency {
		if sv := service[i%len(service)]; sv.n > 0 {
			wait = append(wait, float64(lat.Nanoseconds())/1e3-sv.us())
		}
	}
	slices.Sort(wait)
	var busy float64 // engine.worker<i>.decode.seconds, summed over workers
	for name, h := range reg.Snapshot().Histograms {
		if strings.HasPrefix(name, "engine.worker") && strings.HasSuffix(name, ".decode.seconds") {
			busy += h.Sum
		}
	}
	l.set("engine.wait_us_p50", percentile(wait, 0.50), "us")
	l.set("engine.wait_us_p99", percentile(wait, 0.99), "us")
	l.set("engine.busy_fraction", busy/(float64(s.eng.Workers())*g.stats.span.Seconds()), "ratio")
	l.set("gen.late_us_p99", percentile(micros(g.late), 0.99), "us")
	return nil
}

// ---- codec: codec.New(..).Encode/Decode, channel.Link.Apply/AddNoise ----

func (l *ledger) codec() error {
	s, err := newCodec(l.o.seed, l.o.opLimit)
	if err != nil {
		return err
	}
	backends := make([][]codec.Codec, len(codecs))
	for c, name := range codecs {
		for mi := range modes {
			m := codecMode(c, mi)
			b, err := codec.New(name, codec.Params{Convention: conv, Mode: wifi.Mode{Modulation: m.mod, CodeRate: m.rate}, Channel: m.ch, Seed: txSeed})
			if err != nil {
				return err
			}
			backends[c] = append(backends[c], b)
		}
	}
	hashes := make([]uint64, len(s.pool))
	payloads := make([][]byte, len(s.pool))
	var awgn acc
	encA, decA := make([]acc, len(codecs)), make([]acc, len(codecs))
	r, err := l.replay(section{
		name: "codec",
		n:    len(s.pool),
		facade: func(i int, record bool) error {
			op := s.pool[i]
			s.seedNoise(i)
			_, wave, res, err := s.roundTrip(op)
			if err != nil {
				return err
			}
			if record {
				hashes[i], payloads[i] = hashWave(wave), res.Payload
			}
			return checkPayload(res, op.payload)
		},
		layers: func(i int) error {
			op := s.pool[i]
			b := backends[op.codec][op.mode]
			s.seedNoise(i)
			var enc *codec.Encoded
			var dec *codec.Decoded
			var capture []complex128
			var err error
			encA[op.codec].add(timed(func() { enc, err = b.Encode(op.payload) }))
			if err != nil {
				return err
			}
			awgn.add(timed(func() { capture, err = noisy(enc.Waveform, s.rng) }))
			if err != nil {
				return err
			}
			decA[op.codec].add(timed(func() { dec, err = b.Decode(capture) }))
			switch {
			case err != nil:
				return err
			case hashWave(enc.Waveform) != hashes[i]:
				return fmt.Errorf("%s layer waveform differs from the facade's", codecs[op.codec])
			case !bytes.Equal(dec.Payload, payloads[i]):
				return fmt.Errorf("%s layer payload differs from the facade's", codecs[op.codec])
			}
			return nil
		},
	})
	if err != nil {
		return err
	}

	var aF, aAWGN float64
	aEnc, aDec, calls := make([]float64, len(codecs)), make([]float64, len(codecs)), make([]float64, len(codecs))
	m := min(len(s.pool), allocOps)
	for _, op := range s.pool[:m] {
		b := backends[op.codec][op.mode]
		aF += allocsOf(func() { _, _, _, _ = s.roundTrip(op) })
		var enc *codec.Encoded
		var capture []complex128
		aEnc[op.codec] += allocsOf(func() { enc, _ = b.Encode(op.payload) })
		if enc == nil {
			continue
		}
		aAWGN += allocsOf(func() { capture, _ = noisy(enc.Waveform, s.rng) })
		aDec[op.codec] += allocsOf(func() { _, _ = b.Decode(capture) })
		calls[op.codec]++
	}
	fm := float64(max(m, 1))
	layersTotal := awgn.total
	var layerAllocs float64
	for c, name := range codecs {
		layersTotal += encA[c].total + decA[c].total
		layerAllocs += aEnc[c] + aDec[c]
		k := max(calls[c], 1)
		l.set("codec."+name+".encode_us", encA[c].us(), "us")
		l.set("codec."+name+".decode_us", decA[c].us(), "us")
		l.set("codec."+name+".encode_allocs", aEnc[c]/k, "count")
		l.set("codec."+name+".decode_allocs", aDec[c]/k, "count")
	}
	layersUS := float64(layersTotal.Nanoseconds()) / 1e3 / float64(max(awgn.n, 1))
	l.attribute("codec", r, layersUS, aF/fm, (layerAllocs+aAWGN)/fm)
	l.set("channel.awgn_us", awgn.us(), "us")
	return nil
}

// ---- coexist: exp.DeriveProfile, mac.Run, core.NewPlan ----

// The layer calls SimulateCoexistence makes, with the same arguments.
func coexistMode(cfg sledzig.CoexistenceConfig) wifi.Mode {
	return wifi.Mode{Modulation: cfg.Modulation, CodeRate: cfg.CodeRate}
}

func deriveProfile(cfg sledzig.CoexistenceConfig) (mac.WiFiProfile, error) {
	variant := exp.Variant{Name: "custom", Mode: coexistMode(cfg), SledZig: cfg.UseSledZig, Codec: sledzig.CodecSledZig}
	return exp.DeriveProfile(conv, variant, cfg.Channel, cfg.Seed+7)
}

func runMAC(cfg sledzig.CoexistenceConfig, profile mac.WiFiProfile) (*mac.Result, error) {
	cca := mac.CCACarrierOnly
	if cfg.EnergyCCA {
		cca = mac.CCAEnergy
	}
	return mac.Run(mac.Config{Seed: cfg.Seed, Duration: cfg.Duration, DWZ: cfg.DWZ, DZ: cfg.DZ, DW: cfg.DW,
		Profile: profile, WiFiMode: coexistMode(cfg), DutyRatio: cfg.DutyRatio, WiFiFrameAirtime: cfg.BurstAirtime, CCAMode: cca,
		ZigBeeNodes: cfg.ZigBeeNodes, UseAcks: cfg.UseAcks, ZigBeeInterval: cfg.ZigBeeReportInterval})
}

// coexistLayers is SimulateCoexistence spelled out as its layer calls.
func coexistLayers(cfg sledzig.CoexistenceConfig, profAcc, runAcc, planAcc *acc) (*sledzig.CoexistenceResult, error) {
	var profile mac.WiFiProfile
	var err error
	profAcc.add(timed(func() { profile, err = deriveProfile(cfg) }))
	if err != nil {
		return nil, err
	}
	var res *mac.Result
	runAcc.add(timed(func() { res, err = runMAC(cfg, profile) }))
	if err != nil {
		return nil, err
	}
	goodput := 1.0
	if cfg.UseSledZig {
		var plan *core.Plan
		planAcc.add(timed(func() { plan, err = core.NewPlan(conv, coexistMode(cfg), cfg.Channel) }))
		if err != nil {
			return nil, err
		}
		goodput = 1 - plan.ThroughputLossFraction()
	}
	return &sledzig.CoexistenceResult{
		ZigBeeThroughputBps: res.ZigBeeThroughputBps, ZigBeeFramesSent: res.ZigBeeSent, ZigBeeDelivered: res.ZigBeeDelivered,
		ZigBeeCorrupted: res.ZigBeeCorrupted, ZigBeeCCADrops: res.ZigBeeCCADrops, ZigBeeCollisions: res.ZigBeeCollisions,
		ZigBeeRetries: res.ZigBeeRetries, WiFiFramesSent: res.WiFiFramesSent, WiFiAirtimeFraction: res.WiFiAirtime / res.SimulatedDuration,
		WiFiFramesFailed: res.WiFiFramesFailed, WiFiGoodputFraction: goodput, InBandRSSIDBm: exp.InBandRSSIDBm(profile, 1, 0),
	}, nil
}

func (l *ledger) coexist() error {
	pool := coexistMix(rand.New(rand.NewSource(l.o.seed)))
	pool = pool[:l.o.opLimit(len(pool))]
	facade := make([]*sledzig.CoexistenceResult, len(pool))
	var prof, run, plan acc
	var sent, delivered int
	var kbps []float64
	r, err := l.replay(section{
		name: "coexist",
		n:    len(pool),
		facade: func(i int, record bool) error {
			res, err := sledzig.SimulateCoexistence(pool[i])
			if record {
				facade[i] = res
			}
			return err
		},
		layers: func(i int) error {
			res, err := coexistLayers(pool[i], &prof, &run, &plan)
			if err != nil {
				return err
			}
			sent += res.ZigBeeFramesSent
			delivered += res.ZigBeeDelivered
			kbps = append(kbps, res.ZigBeeThroughputBps/1e3)
			if facade[i] == nil || *res != *facade[i] {
				return fmt.Errorf("layer result differs from the facade's")
			}
			return nil
		},
	})
	if err != nil {
		return err
	}

	var aF, aProf, aRun, aPlan float64
	m := min(len(pool), allocOps/2)
	for _, cfg := range pool[:m] {
		aF += allocsOf(func() { _, _ = sledzig.SimulateCoexistence(cfg) })
		var profile mac.WiFiProfile
		aProf += allocsOf(func() { profile, _ = deriveProfile(cfg) })
		aRun += allocsOf(func() { _, _ = runMAC(cfg, profile) })
		if cfg.UseSledZig {
			aPlan += allocsOf(func() { _, _ = core.NewPlan(conv, coexistMode(cfg), cfg.Channel) })
		}
	}
	fm := float64(max(m, 1))
	ops := float64(max(run.n, 1))
	layersUS := float64((prof.total + run.total + plan.total).Nanoseconds()) / 1e3 / ops
	l.attribute("coexist", r, layersUS, aF/fm, (aProf+aRun+aPlan)/fm)
	l.set("exp.derive_profile_us", prof.us(), "us")
	l.set("exp.derive_profile_allocs", aProf/fm, "count")
	l.set("core.plan_us", plan.us(), "us")
	l.set("mac.run_us", run.us(), "us")
	l.set("mac.run_allocs", aRun/fm, "count")
	l.set("mac.us_per_zigbee_frame", float64(run.total.Nanoseconds())/1e3/float64(max(sent, 1)), "us")
	l.set("mac.zigbee_frames_per_op", float64(sent)/ops, "count")
	l.set("mac.delivered_ratio", float64(delivered)/float64(max(sent, 1)), "ratio")
	l.set("mac.zigbee_kbps", mean(kbps), "kbit/s")
	return nil
}
