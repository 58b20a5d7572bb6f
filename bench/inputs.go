package main

import (
	"math/rand"

	"sledzig"
	"sledzig/internal/channel"
	"sledzig/internal/wifi"
)

// mode is one WiFi PHY mode together with the ZigBee channel it protects.
type mode struct {
	mod  sledzig.Modulation
	rate sledzig.CodeRate
	ch   sledzig.Channel
}

// modes are the PHY modes the WiFi workloads draw from: one per QAM order,
// each protecting a different ZigBee channel. All of them decode at
// snrDB (QAM-256 r3/4, the most demanding, needs 29 dB).
var modes = []mode{
	{sledzig.QAM16, sledzig.Rate12, sledzig.CH4},
	{sledzig.QAM64, sledzig.Rate34, sledzig.CH2},
	{sledzig.QAM256, sledzig.Rate34, sledzig.CH3},
}

func (m mode) config(codecName string) sledzig.Config {
	return sledzig.Config{Modulation: m.mod, CodeRate: m.rate, Channel: m.ch, Codec: codecName}
}

// codecs are the registered backends the codec-roundtrip workload rotates
// over; the list is fixed here so a new registry entry cannot silently
// change the workload.
var codecs = []string{sledzig.CodecSledZig, sledzig.CodecOOK, sledzig.CodecOfdmFi}

// codecMode is the mode backend c runs in mode slot m. ook-ctc's OOK
// message spans 320 DATA symbols of one PPDU, which only modes of at most
// 102 data bits per symbol fit, so it runs QAM-16 r1/2 on each slot's
// channel.
func codecMode(c, m int) mode {
	if codecs[c] == sledzig.CodecOOK {
		return mode{modes[0].mod, modes[0].rate, modes[m].ch}
	}
	return modes[m]
}

const (
	// snrDB is the full-band SNR of every capture.
	snrDB = 38

	// Payload sizes are bimodal: 60% small frames in [20, 120] B, 40% large
	// ones in [1000, 1500] B, so the median op sits inside the small mode
	// (per-frame fixed cost) and p99 inside the large one.
	smallShare         = 0.6
	smallMin, smallMax = 20, 120
	largeMin, largeMax = 1000, 1500

	// Pool sizes. Each workload cycles through its pool, and a 1 s window
	// covers at least one whole pass, so every window sees the same mix.
	txPool    = 600
	rxPool    = 200 // two passes per window at rxRate
	codecPool = 180 // 20 per (codec, mode)

	// rxRate is the gateway's offered load, about a third of what a
	// 2-worker engine sustains. Each garbage collection empties the
	// receive scratch pools, and a run sees one collection more or fewer
	// from run to run; the more frames a run decodes, the less that moves
	// alloc_bytes_per_op (at 200/s its spread between runs reached 0.019).
	rxRate = 400

	// codecMin and codecMax bound codec-roundtrip payloads.
	codecMin, codecMax = 16, 400
)

// noisy passes wave through the AWGN link every capture takes: scaled to
// snrDB above the channel's noise floor over the full 20 MHz, plus noise.
func noisy(wave []complex128, rng *rand.Rand) ([]complex128, error) {
	l := channel.Link{RxPowerDBm: channel.NoisePowerDBm(wifi.SampleRate) + snrDB, Rng: rng}
	out, _ := l.Apply(wave)
	return out, l.AddNoise(out)
}

// stratified returns n values in [lo, hi], one uniform draw from each of n
// equal slices of the range: every seed gets the same spread of sizes, so
// seeds differ in order and detail but not in the work mix.
func stratified(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	span := float64(hi - lo + 1)
	for i := range out {
		out[i] = lo + int((float64(i)+rng.Float64())/float64(n)*span)
	}
	return out
}

func randomPayload(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}

// frame is one WiFi workload input: a payload and the mode to send it in.
type frame struct {
	mode    int
	payload []byte
}

// frameMix draws n frames with the bimodal size mix, modes balanced
// within each size class, in seeded order.
func frameMix(rng *rand.Rand, n int) []frame {
	nSmall := int(float64(n)*smallShare + 0.5)
	sizes := append(stratified(rng, nSmall, smallMin, smallMax), stratified(rng, n-nSmall, largeMin, largeMax)...)
	out := make([]frame, n)
	for i, size := range sizes {
		out[i] = frame{mode: i % len(modes), payload: randomPayload(rng, size)}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// codecOp is one codec-roundtrip input.
type codecOp struct {
	codec, mode int
	payload     []byte
	noiseSeed   int64
}

// codecMix draws n round trips balanced over (codec, mode), payload sizes
// stratified over [codecMin, codecMax] and capped at each backend's limit.
func codecMix(rng *rand.Rand, n int, maxPayload func(codec, mode int) int) []codecOp {
	sizes := stratified(rng, n, codecMin, codecMax)
	out := make([]codecOp, n)
	for i, size := range sizes {
		c, m := (i/len(modes))%len(codecs), i%len(modes)
		out[i] = codecOp{codec: c, mode: m, payload: randomPayload(rng, min(size, maxPayload(c, m))), noiseSeed: rng.Int63()}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// The coexist-sweep grid on CH4: every paper variant at every distance and
// duty ratio.
var (
	coexistDistances = []float64{0.5, 1, 2, 3, 4}
	coexistDuties    = []float64{0.3, 0.7, 1.0}
)

const (
	coexistSimSeconds = 0.5
	// coexistBurst is the WiFi burst airtime of the paper's Fig. 14 sweeps.
	coexistBurst = 20e-3
)

// coexistVariant mirrors exp.PaperVariants (Normal, QAM-16, QAM-64,
// QAM-256) through the public API.
type coexistVariant struct {
	mod     sledzig.Modulation
	rate    sledzig.CodeRate
	sledZig bool
}

var coexistVariants = []coexistVariant{
	{sledzig.QAM64, sledzig.Rate23, false},
	{sledzig.QAM16, sledzig.Rate12, true},
	{sledzig.QAM64, sledzig.Rate23, true},
	{sledzig.QAM256, sledzig.Rate34, true},
}

// coexistMix returns the whole grid in seeded order, each point with its
// own simulation seed.
func coexistMix(rng *rand.Rand) []sledzig.CoexistenceConfig {
	var out []sledzig.CoexistenceConfig
	for _, v := range coexistVariants {
		for _, d := range coexistDistances {
			for _, duty := range coexistDuties {
				out = append(out, coexistConfig(v, d, duty, rng.Int63n(1<<40)))
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func coexistConfig(v coexistVariant, dWZ, duty float64, seed int64) sledzig.CoexistenceConfig {
	return sledzig.CoexistenceConfig{
		Modulation: v.mod, CodeRate: v.rate, Channel: sledzig.CH4, UseSledZig: v.sledZig,
		DWZ: dWZ, DZ: 1, DutyRatio: duty, BurstAirtime: coexistBurst,
		Duration: coexistSimSeconds, Seed: seed, EnergyCCA: true,
	}
}
