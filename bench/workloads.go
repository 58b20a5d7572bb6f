package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sledzig"
)

// Every workload first runs one untimed check pass over its input pool:
// it fills the program's memoized state (frame layouts, receive buffers),
// checks each op's output (payload, band-drop contract, invariants) and
// records what the op must produce. The timed loop then cycles through
// the pool and compares each op, or every checkEvery-th one where the
// comparison costs a waveform hash, with that record. The quality
// numbers (band drop, EVM, ZigBee throughput) come from the check pass,
// so they depend on the seed alone.

// Fixed payload sizes of the cold set-up ops: set-up time should not
// depend on which sizes a seed happens to draw first.
const (
	setupFrameSize = 1500
	setupCodecSize = codecMax
)

// ---- tx-mix: closed loop, Encoder.Encode -> Frame.AppendWaveform ----

type txState struct {
	pool []frame
	encs []*sledzig.Encoder // per mode
	buf  []complex128       // reused waveform buffer
}

// newEncoders builds one facade encoder per mode.
func newEncoders() ([]*sledzig.Encoder, error) {
	var encs []*sledzig.Encoder
	for _, m := range modes {
		enc, err := sledzig.NewEncoder(m.config(""))
		if err != nil {
			return nil, err
		}
		encs = append(encs, enc)
	}
	return encs, nil
}

// newTx draws the seed's pool and keeps its first n entries.
func newTx(seed int64, n func(int) int) (*txState, error) {
	pool := frameMix(rand.New(rand.NewSource(seed)), txPool)
	encs, err := newEncoders()
	if err != nil {
		return nil, err
	}
	return &txState{pool: pool[:n(len(pool))], encs: encs}, nil
}

// render is the tx-mix op: encode, then render into the reused buffer.
func (s *txState) render(in frame) (*sledzig.Frame, error) {
	f, err := s.encs[in.mode].Encode(in.payload)
	if err != nil {
		return nil, err
	}
	s.buf, err = f.AppendWaveform(s.buf[:0])
	return f, err
}

func setupTx(seed int64) error {
	payload := randomPayload(rand.New(rand.NewSource(seed)), setupFrameSize)
	encs, err := newEncoders()
	if err != nil {
		return err
	}
	s := &txState{encs: encs}
	for m := range modes {
		if _, err := s.render(frame{mode: m, payload: payload}); err != nil {
			return err
		}
	}
	return nil
}

// checkTx renders each pool frame, measures its band drop and decodes it
// back through the AWGN link; each mode's frames must meet the contract.
func (s *txState) checkTx(seed int64, rep *report) (hashes []uint64, drops *dropMeter, evms []float64, err error) {
	dec, err := sledzig.NewDecoder(sledzig.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	hashes = make([]uint64, len(s.pool))
	drops = newDropMeter()
	for i, in := range s.pool {
		rep.attempted++
		err := func() error {
			if _, err := s.render(in); err != nil {
				return err
			}
			hashes[i] = hashWave(s.buf)
			if err := drops.measure(0, in.mode, in.payload); err != nil { // codecs[0] is sledzig
				return err
			}
			capture, err := noisy(s.buf, rng)
			if err != nil {
				return err
			}
			res, err := dec.Decode(capture)
			if err != nil {
				return err
			}
			evms = append(evms, frameEVM(res.SymbolEVM))
			return checkPayload(res, in.payload)
		}()
		if err != nil {
			rep.fail("check of frame %d: %v", i, err)
		}
	}
	drops.check(rep)
	return hashes, drops, evms, nil
}

func runTx(o options) (*report, error) {
	s, err := newTx(o.seed, o.opLimit)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	hashes, drops, evms, err := s.checkTx(o.seed, rep)
	if err != nil {
		return nil, err
	}
	stats := closedLoop(o, rep, func(i int) (opResult, error) {
		k := i % len(s.pool)
		t0 := time.Now()
		f, err := s.render(s.pool[k])
		lat := time.Since(t0)
		if err == nil && i%checkEvery == 0 && hashWave(s.buf) != hashes[k] {
			err = fmt.Errorf("waveform differs from the checked render")
		}
		if err != nil {
			return opResult{latency: lat}, err
		}
		return opResult{latency: lat, frames: 1, air: f.AirtimeSeconds()}, nil
	})
	stats.endToEnd(rep, drops.mean())
	rep.extra["evm_db"] = metric{evmDB(mean(evms)), "dB"}
	s.pool, s.buf = nil, nil
	rep.metrics["live_heap_mib"] = metric{liveHeapMiB(s), "MiB"}
	return rep, nil
}

// ---- rx-gateway: open loop, Poisson arrivals into Engine.DecodeStream ----

type rxState struct {
	pool     []frame
	captures [][]complex128 // pre-rendered noisy captures, one per pool entry
	air      []float64
	eng      *sledzig.Engine
}

// render encodes each pool frame and passes it through the AWGN link.
func (s *rxState) render(rng *rand.Rand) error {
	encs, err := newEncoders()
	if err != nil {
		return err
	}
	for _, in := range s.pool {
		f, err := encs[in.mode].Encode(in.payload)
		if err != nil {
			return err
		}
		wave, err := f.Waveform()
		if err != nil {
			return err
		}
		capture, err := noisy(wave, rng)
		if err != nil {
			return err
		}
		s.captures = append(s.captures, capture)
		s.air = append(s.air, f.AirtimeSeconds())
	}
	return nil
}

// newGateway starts the gateway engine; Workers defaults to GOMAXPROCS.
// Decoding detects mode and channel from the air, so the configured
// channel only has to be valid.
func newGateway() (*sledzig.Engine, error) {
	return sledzig.NewEngine(sledzig.EngineConfig{Config: sledzig.Config{Channel: sledzig.CH4}})
}

// newRx renders the first n frames of the seed's pool as captures.
func newRx(seed int64, n func(int) int) (*rxState, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := frameMix(rng, rxPool)
	s := &rxState{pool: pool[:n(len(pool))]}
	if err := s.render(rng); err != nil {
		return nil, err
	}
	var err error
	if s.eng, err = newGateway(); err != nil {
		return nil, err
	}
	return s, nil
}

func setupRx(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	payload := randomPayload(rng, setupFrameSize)
	s := &rxState{}
	for m := range modes {
		s.pool = append(s.pool, frame{mode: m, payload: payload})
	}
	if err := s.render(rng); err != nil {
		return err
	}
	eng, err := newGateway()
	if err != nil {
		return err
	}
	defer eng.Close()
	for _, c := range s.captures {
		if _, err := eng.DecodeBatch(context.Background(), [][]complex128{c}); err != nil {
			return err
		}
	}
	return nil
}

// arrivals returns n due times at rate per second: each 1 s window holds
// exactly rate arrivals placed uniformly at random, which is a Poisson
// process conditioned on the count per window, so windows stay comparable.
func arrivals(rng *rand.Rand, n, rate int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		w := i / rate
		due[i] = time.Duration((float64(w) + rng.Float64()) * float64(time.Second))
	}
	for w := 0; w*rate < n; w++ {
		win := due[w*rate : min((w+1)*rate, n)]
		sort.Slice(win, func(a, b int) bool { return win[a] < win[b] })
	}
	return due
}

// sleepUntil returns at t or just after: it sleeps in the kernel to within
// spinMargin of t and spins the rest. (Sleeping with time.Sleep and
// yielding the rest measured 1.5-2x higher gateway latencies: the spin
// competes with the workers for the two processors.)
func sleepUntil(t time.Time) {
	const spinMargin = 100 * time.Microsecond
	if d := time.Until(t) - spinMargin; d > 0 {
		kernelSleep(d)
	}
	for time.Now().Before(t) {
	}
}

// gatewayRun is one open-loop replay's per-arrival record.
type gatewayRun struct {
	stats   *loopStats
	late    []time.Duration // generator send time minus due time
	latency []time.Duration // completion minus due time, by arrival
}

// openLoop offers n arrivals to the gateway engine at rxRate, cycling
// through the captures, and checks every decoded payload; latency runs
// from each frame's due time.
func (s *rxState) openLoop(n int, rng *rand.Rand, rep *report) *gatewayRun {
	due := arrivals(rng, n, rxRate)
	g := &gatewayRun{stats: newLoopStats(), late: make([]time.Duration, n), latency: make([]time.Duration, n)}
	in := make(chan []complex128)
	var mem memWindow
	mem.begin()
	out := s.eng.DecodeStream(context.Background(), in)
	start := time.Now()
	g.stats.start = start
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		defer close(in)
		for i, d := range due {
			sleepUntil(start.Add(d))
			g.late[i] = time.Since(start) - d
			in <- s.captures[i%len(s.captures)]
		}
	}()
	var last time.Time
	for r := range out {
		last = time.Now()
		k := r.Index % len(s.pool)
		g.latency[r.Index] = last.Sub(start) - due[r.Index]
		g.stats.attempted++
		err := r.Err
		if err == nil {
			err = checkPayload(r.Result, s.pool[k].payload)
		}
		if err != nil {
			rep.fail("arrival %d: %v", r.Index, err)
			continue
		}
		g.stats.add(last, 1, s.air[k])
	}
	gen.Wait()
	// The offered load fixes the rate in every window; the rate over the
	// whole span shows a gateway that falls behind.
	g.stats.span, g.stats.overSpan = last.Sub(start), true
	g.stats.latencies = g.latency
	mem.end(g.stats)
	if g.stats.attempted != n {
		rep.fail("%d of %d arrivals came back", g.stats.attempted, n)
	}
	return g
}

func runRx(o options) (*report, error) {
	s, err := newRx(o.seed, o.opLimit)
	if err != nil {
		return nil, err
	}
	defer s.eng.Close()
	rep := &report{}
	var evms []float64
	drops := newDropMeter()
	for i, out := range s.eng.DecodeEach(context.Background(), s.captures) {
		rep.attempted++
		err := out.Err
		if err == nil {
			evms = append(evms, frameEVM(out.Result.SymbolEVM))
			err = checkPayload(out.Result, s.pool[i].payload)
		}
		if err == nil {
			err = drops.measure(0, s.pool[i].mode, s.pool[i].payload) // codecs[0] is sledzig
		}
		if err != nil {
			rep.fail("check of capture %d: %v", i, err)
		}
	}
	drops.check(rep)
	n := int(o.seconds * rxRate)
	if o.maxOps > 0 {
		n = min(n, o.maxOps)
	}
	g := s.openLoop(max(n, 1), rand.New(rand.NewSource(o.seed)), rep)
	g.stats.endToEnd(rep, drops.mean())
	miss := 0
	for _, l := range g.latency {
		if l > sloLatency {
			miss++
		}
	}
	rep.extra["evm_db"] = metric{evmDB(mean(evms)), "dB"}
	rep.extra["slo_miss_fraction"] = metric{float64(miss) / float64(len(g.latency)), "ratio"}
	s.pool, s.captures = nil, nil
	rep.metrics["live_heap_mib"] = metric{liveHeapMiB(s.eng), "MiB"}
	return rep, nil
}

// sloLatency is the gateway's latency limit on p99.
const sloLatency = 20 * time.Millisecond

// ---- codec-roundtrip: closed loop, facade encode -> AWGN -> decode ----

type codecState struct {
	pool []codecOp
	encs [][]*sledzig.Encoder // [codec][mode slot]
	decs [][]*sledzig.Decoder
	rng  *rand.Rand // AWGN source, reseeded per op
}

func newCodecEndpoints() (encs [][]*sledzig.Encoder, decs [][]*sledzig.Decoder, err error) {
	for c, name := range codecs {
		var es []*sledzig.Encoder
		var ds []*sledzig.Decoder
		for m := range modes {
			enc, err := sledzig.NewEncoder(codecMode(c, m).config(name))
			if err != nil {
				return nil, nil, err
			}
			dec, err := sledzig.NewDecoder(codecMode(c, m).config(name))
			if err != nil {
				return nil, nil, err
			}
			es, ds = append(es, enc), append(ds, dec)
		}
		encs, decs = append(encs, es), append(decs, ds)
	}
	return encs, decs, nil
}

func newCodec(seed int64, n func(int) int) (*codecState, error) {
	encs, decs, err := newCodecEndpoints()
	if err != nil {
		return nil, err
	}
	s := &codecState{encs: encs, decs: decs, rng: rand.New(rand.NewSource(seed))}
	pool := codecMix(rand.New(rand.NewSource(seed)), codecPool, func(c, m int) int { return maxPayload(encs[c][m]) })
	s.pool = pool[:n(len(pool))]
	return s, nil
}

// maxPayload is enc's single-frame payload limit. 64 DATA symbols carry
// more than codecMax octets in every mode; backends with their own framing
// ignore the symbol count.
func maxPayload(enc *sledzig.Encoder) int { return enc.MaxPayload(64) }

// seedNoise gives op i its own AWGN realisation: pool entry i%n gets a
// fresh one on every pass, the same on every replay.
func (s *codecState) seedNoise(i int) {
	n := len(s.pool)
	s.rng.Seed(s.pool[i%n].noiseSeed + int64(i/n))
}

// roundTrip is the codec-roundtrip op on the facade.
func (s *codecState) roundTrip(op codecOp) (*sledzig.Frame, []complex128, *sledzig.DecodeResult, error) {
	f, err := s.encs[op.codec][op.mode].Encode(op.payload)
	if err != nil {
		return nil, nil, nil, err
	}
	wave, err := f.Waveform()
	if err != nil {
		return nil, nil, nil, err
	}
	capture, err := noisy(wave, s.rng)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := s.decs[op.codec][op.mode].Decode(capture)
	return f, wave, res, err
}

func setupCodec(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	payload := randomPayload(rng, setupCodecSize)
	encs, decs, err := newCodecEndpoints()
	if err != nil {
		return err
	}
	s := &codecState{encs: encs, decs: decs, rng: rng}
	for c := range codecs {
		for m := range modes {
			op := codecOp{codec: c, mode: m, payload: payload[:min(len(payload), maxPayload(encs[c][m]))]}
			_, _, res, err := s.roundTrip(op)
			if err == nil {
				err = checkPayload(res, op.payload)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// checkCodec round-trips each pool op and measures the band drop of its
// clean waveform's protected symbols; each (codec, mode) class must meet
// its codec's contract.
func (s *codecState) checkCodec(rep *report) (hashes []uint64, drops *dropMeter, evms []float64) {
	hashes = make([]uint64, len(s.pool))
	drops = newDropMeter()
	for i, op := range s.pool {
		rep.attempted++
		s.seedNoise(i)
		err := func() error {
			_, wave, res, err := s.roundTrip(op)
			if err == nil {
				err = checkPayload(res, op.payload)
			}
			if err != nil {
				return err
			}
			hashes[i] = hashWave(wave)
			if res.SymbolEVM != nil {
				evms = append(evms, frameEVM(res.SymbolEVM))
			}
			err = drops.measure(op.codec, op.mode, op.payload)
			return err
		}()
		if err != nil {
			rep.fail("check of %s op %d: %v", codecs[op.codec], i, err)
		}
	}
	drops.check(rep)
	return hashes, drops, evms
}

func runCodec(o options) (*report, error) {
	s, err := newCodec(o.seed, o.opLimit)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	hashes, drops, evms := s.checkCodec(rep)
	stats := closedLoop(o, rep, func(i int) (opResult, error) {
		k := i % len(s.pool)
		op := s.pool[k]
		s.seedNoise(i)
		t0 := time.Now()
		f, wave, res, err := s.roundTrip(op)
		lat := time.Since(t0)
		if err == nil {
			err = checkPayload(res, op.payload)
		}
		if err == nil && i%checkEvery == 0 && hashWave(wave) != hashes[k] {
			err = fmt.Errorf("waveform differs from the checked encode")
		}
		if err != nil {
			return opResult{latency: lat}, fmt.Errorf("%s: %w", codecs[op.codec], err)
		}
		return opResult{latency: lat, frames: 1, air: f.AirtimeSeconds()}, nil
	})
	stats.endToEnd(rep, drops.mean())
	rep.extra["evm_db"] = metric{evmDB(mean(evms)), "dB"}
	s.pool = nil
	rep.metrics["live_heap_mib"] = metric{liveHeapMiB(s), "MiB"}
	return rep, nil
}

// ---- coexist-sweep: closed loop, SimulateCoexistence over a grid ----

func setupCoexist(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, v := range coexistVariants {
		if _, err := sledzig.SimulateCoexistence(coexistConfig(v, 2, 0.7, rng.Int63n(1<<40))); err != nil {
			return err
		}
	}
	return nil
}

// checkCoexist holds a simulation result to the invariants any run must
// satisfy.
func checkCoexist(r *sledzig.CoexistenceResult) error {
	if r.ZigBeeDelivered > r.ZigBeeFramesSent {
		return fmt.Errorf("delivered %d of %d sent ZigBee frames", r.ZigBeeDelivered, r.ZigBeeFramesSent)
	}
	if r.WiFiAirtimeFraction < 0 || r.WiFiAirtimeFraction > 1 {
		return fmt.Errorf("WiFi airtime fraction %g outside [0, 1]", r.WiFiAirtimeFraction)
	}
	return nil
}

func runCoexist(o options) (*report, error) {
	pool := coexistMix(rand.New(rand.NewSource(o.seed)))
	pool = pool[:o.opLimit(len(pool))]
	rep := &report{}
	checked := make([]*sledzig.CoexistenceResult, len(pool))
	var kbps, rssiNormal, rssiSledZig []float64
	for i, cfg := range pool {
		rep.attempted++
		r, err := sledzig.SimulateCoexistence(cfg)
		if err == nil {
			err = checkCoexist(r)
		}
		if err != nil {
			rep.fail("check of configuration %d: %v", i, err)
			continue
		}
		checked[i] = r
		kbps = append(kbps, r.ZigBeeThroughputBps/1e3)
		if cfg.UseSledZig {
			rssiSledZig = append(rssiSledZig, r.InBandRSSIDBm)
		} else {
			rssiNormal = append(rssiNormal, r.InBandRSSIDBm)
		}
	}
	stats := closedLoop(o, rep, func(i int) (opResult, error) {
		k, pass := i%len(pool), i/len(pool)
		// Each pass simulates fresh realisations, so the run's cost mix
		// does not hinge on one seed per grid point.
		cfg := pool[k]
		cfg.Seed += int64(pass)
		t0 := time.Now()
		r, err := sledzig.SimulateCoexistence(cfg)
		lat := time.Since(t0)
		if err == nil {
			err = checkCoexist(r)
		}
		// The same configuration at the same seed must reproduce exactly.
		if err == nil && pass == 0 && (checked[k] == nil || *r != *checked[k]) {
			err = fmt.Errorf("configuration %d did not reproduce its checked result", k)
		}
		if err != nil {
			return opResult{latency: lat}, err
		}
		return opResult{latency: lat, frames: r.ZigBeeFramesSent + r.WiFiFramesSent, air: cfg.Duration}, nil
	})
	// The protected-band drop as the ZigBee receiver sees it: in-band RSSI
	// at 1 m of plain WiFi minus that of the SledZig variants.
	stats.endToEnd(rep, mean(rssiNormal)-mean(rssiSledZig))
	rep.extra["zigbee_kbps"] = metric{mean(kbps), "kbit/s"}
	// SimulateCoexistence keeps no state of its own; what stays live is
	// process-wide.
	rep.metrics["live_heap_mib"] = metric{liveHeapMiB(nil), "MiB"}
	return rep, nil
}
