package wifi

import "sledzig/internal/obs"

// Metric handles for the PHY chains, resolved lazily against the
// process-wide obs registry. When no registry is installed the stages
// keep their names (for trace spans) but every metric handle is nil, so
// the instrumented call sites reduce to nil checks.
type phyMetrics struct {
	// Tx chain stages.
	txScramble   *obs.Stage
	txEncode     *obs.Stage // convolutional encode + puncture
	txInterleave *obs.Stage
	txMap        *obs.Stage // QAM constellation mapping
	txIFFT       *obs.Stage // subcarrier assembly + IFFT + CP
	txFrames     *obs.Counter
	txSymbols    *obs.Counter

	// Rx chain stages (the Tx mirror).
	rxPreamble    *obs.Stage // STS/LTS scan of the resync rung
	rxSync        *obs.Stage // channel estimation from the LTS
	rxSignal      *obs.Stage // SIGNAL symbol decode
	rxEqualize    *obs.Stage
	rxDemap       *obs.Stage
	rxDeinterlv   *obs.Stage
	rxViterbi     *obs.Stage
	rxDescramble  *obs.Stage
	rxFrames      *obs.Counter
	rxFailShort   *obs.Counter // waveform shorter than preamble+SIGNAL (sync loss)
	rxFailChanEst *obs.Counter // unusable LTS channel estimate
	rxFailSignal  *obs.Counter // SIGNAL field decode/parity failure
	rxFailTrunc   *obs.Counter // PPDU truncated mid-DATA
	rxFailDecode  *obs.Counter // Viterbi/descramble output unusable

	// Degradation-ladder accounting: resync attempts and recoveries.
	rxResyncs  *obs.Counter // preamble-scan retries attempted
	rxResyncOK *obs.Counter // ... that recovered the frame

	bus *obs.Bus
}

var phyLazy obs.Lazy[*phyMetrics]

func phy() *phyMetrics {
	return phyLazy.Get(func(r *obs.Registry) *phyMetrics {
		tx := r.Scope("wifi.tx")
		rx := r.Scope("wifi.rx")
		return &phyMetrics{
			txScramble:   tx.Stage("scramble"),
			txEncode:     tx.Stage("encode"),
			txInterleave: tx.Stage("interleave"),
			txMap:        tx.Stage("map"),
			txIFFT:       tx.Stage("ifft"),
			txFrames:     tx.Counter("frames"),
			txSymbols:    tx.Counter("symbols"),

			rxPreamble:    rx.Stage("preamble_detect"),
			rxSync:        rx.Stage("sync"),
			rxSignal:      rx.Stage("signal"),
			rxEqualize:    rx.Stage("equalize"),
			rxDemap:       rx.Stage("demap"),
			rxDeinterlv:   rx.Stage("deinterleave"),
			rxViterbi:     rx.Stage("viterbi"),
			rxDescramble:  rx.Stage("descramble"),
			rxFrames:      rx.Counter("frames"),
			rxFailShort:   rx.Counter("fail.short_waveform"),
			rxFailChanEst: rx.Counter("fail.channel_estimate"),
			rxFailSignal:  rx.Counter("fail.signal"),
			rxFailTrunc:   rx.Counter("fail.truncated"),
			rxFailDecode:  rx.Counter("fail.decode"),

			rxResyncs:  rx.Counter("degrade.resync"),
			rxResyncOK: rx.Counter("degrade.resync_recovered"),

			bus: r.Bus(),
		}
	})
}

// rxFail counts one receive failure and mirrors it on the event bus.
func (m *phyMetrics) rxFail(c *obs.Counter, kind string, err error) {
	c.Inc()
	if m.bus.Active() {
		detail := ""
		if err != nil {
			detail = err.Error()
		}
		m.bus.Publish(obs.Event{Source: "wifi.rx", Kind: "decode_fail." + kind, Node: -1, Detail: detail})
	}
}
