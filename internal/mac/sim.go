package mac

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"sledzig/internal/channel"
	"sledzig/internal/dsp"
	"sledzig/internal/obs"
	"sledzig/internal/wifi"
	"sledzig/internal/zigbee"
)

// MAC timing constants the paper contrasts (section II-B).
const (
	// WiFiDIFS and WiFiSlot are the 802.11g values the paper cites.
	WiFiDIFS = 28e-6
	WiFiSlot = 9e-6
	// WiFiCWMin backoff slots (CWmin = 15).
	WiFiCWMin = 15

	// ZigBeeBackoffPeriod is aUnitBackoffPeriod (20 symbols = 320 us).
	ZigBeeBackoffPeriod = 320e-6
	// ZigBeeCCADuration is the 8-symbol energy-detect window (128 us).
	ZigBeeCCADuration = 128e-6
	// ZigBee CSMA-CA parameters (802.15.4 defaults).
	zigbeeMinBE          = 3
	zigbeeMaxBE          = 5
	zigbeeMaxCSMARetries = 4
)

// Config parameterizes one coexistence run. Distances follow the paper's
// Fig. 10: the ZigBee receiver sits d_WZ meters from the WiFi transmitter
// and the ZigBee transmitter d_Z meters from its receiver (perpendicular
// to the WiFi path, so the WiFi->ZigBeeTx distance is sqrt(dWZ^2+dZ^2)).
type Config struct {
	Seed     int64
	Duration float64 // simulated seconds

	// Geometry (meters).
	DWZ float64 // WiFi Tx to ZigBee Rx
	DZ  float64 // ZigBee Tx to ZigBee Rx
	DW  float64 // WiFi Tx to WiFi Rx

	// WiFi traffic.
	Profile     WiFiProfile
	WiFiMode    wifi.Mode
	WiFiPayload int     // PSDU octets per PPDU
	DutyRatio   float64 // target airtime fraction; >= 1 means saturated
	WiFiTxGain  int     // USRP gain steps relative to the calibration anchor
	// WiFiFrameAirtime overrides the per-PPDU airtime. The paper's USRP
	// transmitter streams long payload bursts (one preamble per burst);
	// setting several milliseconds here reproduces that traffic shape.
	// Zero derives the airtime from WiFiMode and WiFiPayload.
	WiFiFrameAirtime float64
	// ZigBee traffic.
	ZigBeePayload      int
	ZigBeeTxGain       int
	ProcessingOverhead float64 // per-packet host-side delay (TelosB serial path)
	// ZigBeeNodes is the number of ZigBee transmitters contending for the
	// same receiver (default 1, the paper's setup). Nodes share the link
	// geometry and hear each other's carriers, so they also collide.
	ZigBeeNodes int
	// UseAcks enables 802.15.4 immediate acknowledgments with up to
	// MaxFrameRetries retransmissions; delivery then means "ACK received".
	UseAcks bool
	// MaxFrameRetries bounds retransmissions when UseAcks is set
	// (macMaxFrameRetries, default 3).
	MaxFrameRetries int
	// ZigBeeInterval switches the traffic model from saturated (0) to
	// periodic reporting: each node generates one frame every Interval
	// seconds (jittered), idling in between — the duty cycle of real
	// sensor fleets.
	ZigBeeInterval float64

	// Reception model.
	PilotSuppressionDB float64 // DSSS tone rejection applied to the pilot remnant
	// WidebandSuppressionDB is the despreading correlation advantage
	// against wideband (OFDM-shaped) interference, applied when decoding
	// but not to energy-detect CCA.
	WidebandSuppressionDB float64
	CCAThresholdDBm       float64 // ZigBee energy-detect threshold
	// CCAMode selects the CC2420 clear-channel behaviour (see CCAMode).
	CCAMode CCAMode

	// Trace, when set, receives every simulator event as an obs.Event
	// (Source "mac", Kind one of the Trace* constants); obs.NewCSVSink,
	// obs.NewJSONLSink and obs.SinkFunc all fit.
	Trace obs.Sink
}

// CCAMode selects how the ZigBee transmitter's clear-channel assessment
// treats non-802.15.4 energy. The CC2420 supports both behaviours; which
// one a testbed exhibits depends on its CCA_MODE register.
type CCAMode int

const (
	// CCAEnergy flags the channel busy when in-band energy exceeds the
	// threshold regardless of its origin — the behaviour behind the
	// paper's carrier-sense-range analysis (Figs. 4a, 14).
	CCAEnergy CCAMode = iota
	// CCACarrierOnly ignores non-802.15.4 energy: only a decodable ZigBee
	// carrier blocks access. The paper's Fig. 16 data (concurrent ZigBee
	// transmissions at d_WZ = 1 m, where the WiFi energy is far above any
	// plausible threshold) implies this behaviour on its TelosB nodes.
	CCACarrierOnly
)

// Defaults fills zero-valued fields with the paper's experimental setup.
func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 10
	}
	if c.DW == 0 {
		c.DW = 1
	}
	if c.WiFiPayload == 0 {
		c.WiFiPayload = 1500
	}
	if c.WiFiMode.Modulation == 0 {
		c.WiFiMode = wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}
	}
	if c.DutyRatio == 0 {
		c.DutyRatio = 1
	}
	if c.WiFiTxGain == 0 {
		c.WiFiTxGain = channel.WiFiReferenceGain
	}
	if c.ZigBeePayload == 0 {
		c.ZigBeePayload = 100
	}
	if c.ZigBeeTxGain == 0 {
		c.ZigBeeTxGain = 31
	}
	if c.ProcessingOverhead == 0 {
		c.ProcessingOverhead = 7.9e-3
	}
	if c.PilotSuppressionDB == 0 {
		c.PilotSuppressionDB = 9
	}
	if c.WidebandSuppressionDB == 0 {
		c.WidebandSuppressionDB = 5
	}
	if c.WiFiFrameAirtime == 0 {
		c.WiFiFrameAirtime = wifi.PPDUDuration(c.WiFiMode, c.WiFiPayload)
	}
	if c.CCAThresholdDBm == 0 {
		c.CCAThresholdDBm = channel.ZigBeeCCAThresholdDBm
	}
	if c.Profile.PilotDBm == 0 {
		// A 0 dBm pilot is physically implausible here; the zero value
		// means "no pilot component".
		c.Profile.PilotDBm = math.Inf(-1)
	}
	if c.ZigBeeNodes == 0 {
		c.ZigBeeNodes = 1
	}
	if c.MaxFrameRetries == 0 {
		c.MaxFrameRetries = 3
	}
	return c
}

// Result aggregates one run.
type Result struct {
	// ZigBee side.
	ZigBeeThroughputBps float64
	ZigBeeSent          int // frames put on air (including retransmissions)
	ZigBeeDelivered     int // unique frames received (ACKed when UseAcks)
	ZigBeeCorrupted     int // on-air frames lost to interference
	ZigBeeCCADrops      int // frames abandoned after macMaxCSMABackoffs
	ZigBeeCollisions    int // frames lost to ZigBee-ZigBee collisions
	ZigBeeRetries       int // retransmission attempts (UseAcks)
	ZigBeeAckFailures   int // data delivered but ACK lost (UseAcks)
	ZigBeeDropped       int // frames abandoned after MaxFrameRetries
	// ZigBeeMeanLatency and ZigBeeMaxLatency measure MAC service time of
	// delivered frames (seconds from packet creation to confirmed
	// delivery, including backoffs, CCA, retries and the ACK exchange).
	ZigBeeMeanLatency float64
	ZigBeeMaxLatency  float64
	// WiFi side.
	WiFiFramesSent    int
	WiFiAirtime       float64
	WiFiFramesFailed  int // corrupted by ZigBee interference at the WiFi Rx
	SimulatedDuration float64
}

// ZigBeeGoodputFraction is delivered/sent.
func (r Result) ZigBeeGoodputFraction() float64 {
	if r.ZigBeeSent == 0 {
		return 0
	}
	return float64(r.ZigBeeDelivered) / float64(r.ZigBeeSent)
}

// wifiTx is one WiFi PPDU on the air.
type wifiTx struct {
	start, end  float64
	preambleEnd float64 // end of preamble + SIGNAL (full-power segment)
}

// event is one scheduled simulator step.
type event struct {
	at   float64
	seq  int
	kind int
	node int // ZigBee node index (unused for WiFi events)
}

const (
	evWiFiStart = iota
	evWiFiEnd
	evZigBeeBackoffDone
	evZigBeeCCADone
	evZigBeeTxEnd
	evZigBeeAckEnd
	evZigBeeAckTimeout
	evZigBeeNextPacket
)

// eventQueue is a binary min-heap of events ordered by (at, seq). seq is
// unique, so the order is total and the pop sequence is the same as any
// other correct priority queue's. It is typed rather than built on
// container/heap, whose any-typed Push and Pop box every event into an
// interface: an allocation each way, per simulator step.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest event; the queue must not be empty.
//
//sledzig:noalloc
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// Sim runs one coexistence scenario.
type Sim struct {
	cfg Config
	rng *rand.Rand

	queue eventQueue
	seq   int

	wifiAirtime float64
	wifiLog     []wifiTx // completed + in-flight WiFi transmissions

	// ZigBee state.
	nodes      []zbState
	zbLog      []zbTx // recent/in-flight ZigBee transmissions (incl. ACKs)
	zbFrameAir float64
	zbChips    int
	segs       []interferenceSegment // receiveZigBeeBurst scratch

	latencySum float64
	latencyMax float64

	res Result
}

// zbState is one ZigBee transmitter's CSMA/ARQ state.
type zbState struct {
	nb, be  int
	retries int
	txStart float64
	birth   float64 // when the current packet entered the MAC
	dataOK  bool    // last data frame decoded at the receiver
}

// zbTx is one ZigBee emission on the air.
type zbTx struct {
	node       int
	start, end float64
	ack        bool
	collided   bool
}

// simPool recycles simulators so a run reuses the event heap, the
// transmission logs, the timeline scratch and the random source of an
// earlier one: in steady state Run allocates only its Result.
var simPool = sync.Pool{New: func() any { return new(Sim) }}

// Run executes the simulation and returns aggregate results.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.DWZ <= 0 || cfg.DZ <= 0 {
		return nil, fmt.Errorf("mac: distances must be positive (DWZ=%g, DZ=%g)", cfg.DWZ, cfg.DZ)
	}
	if cfg.DutyRatio > 0 && (cfg.Profile.DataDBm == 0 || cfg.Profile.PreambleDBm == 0) {
		return nil, fmt.Errorf("mac: WiFi profile must set PreambleDBm and DataDBm (got %+v)", cfg.Profile)
	}
	m := simMetrics()
	pass := m.run.Start()
	s := simPool.Get().(*Sim)
	s.reset(cfg)
	if cfg.DutyRatio > 0 {
		s.schedule(s.wifiIdleGap(0), evWiFiStart, 0)
	}
	for n := range s.nodes {
		// Stagger the first attempts so nodes don't start phase-locked.
		s.startZigBeePacket(s.rng.Float64()*cfg.ProcessingOverhead, n)
	}

	for len(s.queue) > 0 {
		ev := s.queue.pop()
		if ev.at > cfg.Duration {
			break
		}
		s.dispatch(ev)
	}
	res := s.res
	res.SimulatedDuration = cfg.Duration
	res.WiFiAirtime = s.wifiAirtime
	if res.ZigBeeDelivered > 0 {
		res.ZigBeeMeanLatency = s.latencySum / float64(res.ZigBeeDelivered)
		res.ZigBeeMaxLatency = s.latencyMax
	}
	res.ZigBeeThroughputBps = float64(8*cfg.ZigBeePayload*res.ZigBeeDelivered) / cfg.Duration
	s.cfg.Trace = nil // a pooled simulator must not pin the caller's sink
	simPool.Put(s)
	pass.End(0, nil)
	m.lastThroughput.Set(res.ZigBeeThroughputBps)
	m.lastAirtime.Set(res.WiFiAirtime / cfg.Duration)
	return &res, nil
}

// reset readies a (possibly recycled) simulator for cfg, keeping the
// capacity of its buffers. Reseeding the source puts it in the same state
// as a fresh rand.NewSource(cfg.Seed).
func (s *Sim) reset(cfg Config) {
	rng := s.rng
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		rng.Seed(cfg.Seed)
	}
	nodes := s.nodes[:0]
	if cap(nodes) < cfg.ZigBeeNodes {
		nodes = make([]zbState, 0, cfg.ZigBeeNodes)
	}
	*s = Sim{
		cfg:        cfg,
		rng:        rng,
		queue:      s.queue[:0],
		wifiLog:    s.wifiLog[:0],
		nodes:      nodes[:cfg.ZigBeeNodes],
		zbLog:      s.zbLog[:0],
		segs:       s.segs[:0],
		zbFrameAir: zigbee.FrameAirtime(cfg.ZigBeePayload),
		zbChips:    (zigbee.PreambleOctets + 2 + cfg.ZigBeePayload + zigbee.FCSLength) * 2 * zigbee.ChipsPerSymbol,
	}
	clear(s.nodes)
}

func (s *Sim) schedule(at float64, kind, node int) {
	s.seq++
	s.queue.push(event{at: at, seq: s.seq, kind: kind, node: node})
}

func (s *Sim) dispatch(ev event) {
	switch ev.kind {
	case evWiFiStart:
		s.wifiStart(ev.at)
	case evWiFiEnd:
		s.wifiEnd(ev.at)
	case evZigBeeBackoffDone:
		// CCA occupies the tail of the backoff; model it as an explicit
		// 128 us window ending now + CCADuration.
		s.schedule(ev.at+ZigBeeCCADuration, evZigBeeCCADone, ev.node)
	case evZigBeeCCADone:
		s.zigbeeCCADone(ev.at, ev.node)
	case evZigBeeTxEnd:
		s.zigbeeTxEnd(ev.at, ev.node)
	case evZigBeeAckEnd:
		s.zigbeeAckEnd(ev.at, ev.node)
	case evZigBeeAckTimeout:
		s.zigbeeRetry(ev.at, ev.node)
	case evZigBeeNextPacket:
		s.startZigBeePacket(ev.at, ev.node)
	}
}

// --- WiFi side ---

func (s *Sim) wifiPPDUAirtime() float64 {
	return s.cfg.WiFiFrameAirtime
}

// wifiIdleGap returns the idle time before the next PPDU: contention
// overhead when saturated, stretched to hit the duty-ratio target
// otherwise, with uniform jitter so ZigBee sees varying alignment.
func (s *Sim) wifiIdleGap(_ float64) float64 {
	contention := WiFiDIFS + WiFiSlot*float64(s.rng.Intn(WiFiCWMin+1))
	if s.cfg.DutyRatio >= 1 {
		return contention
	}
	air := s.wifiPPDUAirtime()
	gap := air*(1/s.cfg.DutyRatio-1) - contention
	if gap < 0 {
		gap = 0
	}
	// +/-50% jitter keeps the long-run duty ratio while randomizing
	// packet alignment (the paper's box-plot spread).
	jittered := gap * (0.5 + s.rng.Float64())
	return contention + jittered
}

func (s *Sim) wifiStart(t float64) {
	air := s.wifiPPDUAirtime()
	preamble := float64(wifi.PreambleLength+wifi.SymbolLength) / wifi.SampleRate
	s.wifiLog = append(s.wifiLog, wifiTx{start: t, end: t + air, preambleEnd: t + preamble})
	s.res.WiFiFramesSent++
	s.trace(t, TraceWiFiStart, -1)
	s.schedule(t+air, evWiFiEnd, 0)
}

func (s *Sim) wifiEnd(t float64) {
	s.trace(t, TraceWiFiEnd, -1)
	s.wifiAirtime += s.wifiPPDUAirtime()
	s.evaluateWiFiReception(t)
	s.schedule(t+s.wifiIdleGap(t), evWiFiStart, 0)
	// Prune transmissions that can no longer affect anything (keep 100 ms
	// of history for in-flight ZigBee frames).
	cut := 0
	for cut < len(s.wifiLog) && s.wifiLog[cut].end < t-0.1 {
		cut++
	}
	if cut > 0 {
		// Compact in place so the backing array is reused, not regrown.
		s.wifiLog = append(s.wifiLog[:0], s.wifiLog[cut:]...)
	}
}

// evaluateWiFiReception checks the just-finished WiFi frame against
// ZigBee interference at the WiFi receiver (paper section V-D2).
func (s *Sim) evaluateWiFiReception(end float64) {
	start := end - s.wifiPPDUAirtime()
	// Overlap with any ZigBee emission?
	overlap := false
	for _, tx := range s.zbLog {
		if tx.start < end && tx.end > start {
			overlap = true
			break
		}
	}
	if !overlap {
		return
	}
	sig := channel.WiFiAtWiFiRxDBm(s.cfg.DW) + float64(s.cfg.WiFiTxGain-channel.WiFiReferenceGain)
	// The ZigBee transmitter sits at (DWZ, DZ); the WiFi receiver at
	// (DW, 0).
	dToRx := math.Hypot(s.cfg.DWZ-s.cfg.DW, s.cfg.DZ)
	interf, err := channel.ZigBeeAtWiFiRxDBm(math.Max(dToRx, 0.1))
	if err != nil {
		return
	}
	sinr := sig - dsp.AddPowersDB(interf, channel.WiFiRxNoiseFloorDBm)
	minSNR := wifiMinSNR(s.cfg.WiFiMode)
	if sinr < minSNR {
		s.res.WiFiFramesFailed++
	}
}

// wifiMinSNR mirrors the paper's Table IV minimum-SNR column, falling
// back to the most robust setting for non-table modes.
func wifiMinSNR(m wifi.Mode) float64 {
	if v, err := wifi.MinSNRForMode(m); err == nil {
		return v
	}
	return 11
}

// --- ZigBee side ---

func (s *Sim) startZigBeePacket(t float64, node int) {
	st := &s.nodes[node]
	st.nb = 0
	st.be = zigbeeMinBE
	st.retries = 0
	st.txStart = -1
	st.birth = t
	s.scheduleZigBeeBackoff(t, node)
	s.pruneZbLog(t)
}

func (s *Sim) scheduleZigBeeBackoff(t float64, node int) {
	delay := float64(s.rng.Intn(1<<s.nodes[node].be)) * ZigBeeBackoffPeriod
	s.schedule(t+delay, evZigBeeBackoffDone, node)
}

func (s *Sim) zigbeeCCADone(t float64, node int) {
	st := &s.nodes[node]
	busy := s.zbCarrierBusy(t-ZigBeeCCADuration, t, node)
	if !busy && s.cfg.CCAMode == CCAEnergy {
		busy = s.ccaBusy(t-ZigBeeCCADuration, t)
	}
	if busy {
		s.trace(t, TraceCCABusy, node)
		st.nb++
		if st.be < zigbeeMaxBE {
			st.be++
		}
		if st.nb > zigbeeMaxCSMARetries {
			s.res.ZigBeeCCADrops++
			s.trace(t, TraceCCADrop, node)
			s.schedule(t+s.nextPacketDelay(), evZigBeeNextPacket, node)
			return
		}
		s.scheduleZigBeeBackoff(t, node)
		return
	}
	st.txStart = t
	s.res.ZigBeeSent++
	s.trace(t, TraceZBStart, node)
	s.appendZbTx(zbTx{node: node, start: t, end: t + s.zbFrameAir})
	s.schedule(t+s.zbFrameAir, evZigBeeTxEnd, node)
}

// nextPacketDelay is the gap to the next frame: the host-side overhead
// for saturated traffic, or the (jittered) reporting interval for
// periodic sensors.
func (s *Sim) nextPacketDelay() float64 {
	if s.cfg.ZigBeeInterval <= 0 {
		return s.cfg.ProcessingOverhead
	}
	return s.cfg.ZigBeeInterval * (0.8 + 0.4*s.rng.Float64())
}

// recordLatency accumulates MAC service-time statistics.
func (s *Sim) recordLatency(d float64) {
	s.latencySum += d
	if d > s.latencyMax {
		s.latencyMax = d
	}
}

// zbCarrierBusy reports another ZigBee emission overlapping the CCA
// window: the nodes sit within meters of each other, so any active
// carrier is far above both the energy and the carrier-sense thresholds.
func (s *Sim) zbCarrierBusy(t0, t1 float64, self int) bool {
	for _, tx := range s.zbLog {
		if tx.node == self && !tx.ack {
			continue
		}
		if tx.end > t0 && tx.start < t1 {
			return true
		}
	}
	return false
}

// appendZbTx logs an emission and flags collisions with anything already
// on the air.
func (s *Sim) appendZbTx(tx zbTx) {
	for i := range s.zbLog {
		other := &s.zbLog[i]
		if other.end > tx.start && other.start < tx.end {
			other.collided = true
			tx.collided = true
			s.res.ZigBeeCollisions++
		}
	}
	s.zbLog = append(s.zbLog, tx)
}

func (s *Sim) pruneZbLog(t float64) {
	cut := 0
	for cut < len(s.zbLog) && s.zbLog[cut].end < t-0.05 {
		cut++
	}
	if cut > 0 {
		s.zbLog = append(s.zbLog[:0], s.zbLog[cut:]...)
	}
}

// findZbTx locates the most recent logged emission for a node.
func (s *Sim) findZbTx(node int, ack bool) *zbTx {
	for i := len(s.zbLog) - 1; i >= 0; i-- {
		if s.zbLog[i].node == node && s.zbLog[i].ack == ack {
			return &s.zbLog[i]
		}
	}
	return nil
}

// ccaBusy measures the peak WiFi in-band power at the ZigBee transmitter
// during the CCA window against the energy-detect threshold.
func (s *Sim) ccaBusy(t0, t1 float64) bool {
	dTx := math.Hypot(s.cfg.DWZ, s.cfg.DZ)
	pl := channel.PathLossDB(dTx, 1) - float64(s.cfg.WiFiTxGain-channel.WiFiReferenceGain)
	for _, tx := range s.wifiLog {
		if tx.end <= t0 || tx.start >= t1 {
			continue
		}
		// Preamble overlap raises the level to the full in-band power;
		// otherwise the payload level applies. The paper notes the 16 us
		// preamble barely moves a 128 us energy average, so weight
		// segments by overlap duration.
		var sum float64
		lo := math.Max(tx.start, t0)
		hi := math.Min(tx.end, t1)
		preHi := math.Min(hi, tx.preambleEnd)
		if preHi > lo {
			sum += (preHi - lo) * dsp.FromDB(s.cfg.Profile.PreambleDBm-pl)
		}
		payLo := math.Max(lo, tx.preambleEnd)
		if hi > payLo {
			sum += (hi - payLo) * dsp.FromDB(s.cfg.Profile.ccaLevelDBm(pl))
		}
		avg := sum / (t1 - t0)
		if dsp.DB(avg) > s.cfg.CCAThresholdDBm {
			return true
		}
	}
	return false
}

// zigbeeTxEnd evaluates the finished ZigBee data frame.
func (s *Sim) zigbeeTxEnd(t float64, node int) {
	st := &s.nodes[node]
	tx := s.findZbTx(node, false)
	collided := tx != nil && tx.collided
	ok := !collided && s.receiveZigBeeBurst(st.txStart, s.zbChips, s.cfg.DZ, s.cfg.DWZ)
	if collided {
		s.trace(t, TraceZBCollided, node)
	} else if !ok {
		s.res.ZigBeeCorrupted++
		s.trace(t, TraceZBCorrupted, node)
	}
	if !s.cfg.UseAcks {
		if ok {
			s.res.ZigBeeDelivered++
			s.trace(t, TraceZBDelivered, node)
			s.recordLatency(t - st.birth)
		}
		st.txStart = -1
		s.schedule(t+s.nextPacketDelay(), evZigBeeNextPacket, node)
		return
	}
	st.dataOK = ok
	if ok {
		// The receiver turns the link around and sends the immediate ACK;
		// it occupies the medium like any ZigBee emission.
		ackStart := t + zigbee.TurnaroundTime
		s.appendZbTx(zbTx{node: node, start: ackStart, end: ackStart + zigbee.AckAirtime, ack: true})
		s.schedule(ackStart+zigbee.AckAirtime, evZigBeeAckEnd, node)
		return
	}
	s.schedule(t+zigbee.AckWaitDuration, evZigBeeAckTimeout, node)
}

// zigbeeAckEnd evaluates the acknowledgment at the original transmitter.
func (s *Sim) zigbeeAckEnd(t float64, node int) {
	st := &s.nodes[node]
	ack := s.findZbTx(node, true)
	ackChips := (zigbee.PreambleOctets + 2 + 3 + zigbee.FCSLength) * 2 * zigbee.ChipsPerSymbol
	// The ACK travels receiver -> transmitter over the same d_Z link; the
	// WiFi interferer is hypot(DWZ, DZ) from the transmitter.
	dWiFi := math.Hypot(s.cfg.DWZ, s.cfg.DZ)
	ok := st.dataOK && ack != nil && !ack.collided &&
		s.receiveZigBeeBurst(t-zigbee.AckAirtime, ackChips, s.cfg.DZ, dWiFi)
	if ok {
		s.res.ZigBeeDelivered++
		s.trace(t, TraceZBDelivered, node)
		s.recordLatency(t - st.birth)
		st.txStart = -1
		s.schedule(t+s.nextPacketDelay(), evZigBeeNextPacket, node)
		return
	}
	s.res.ZigBeeAckFailures++
	s.trace(t, TraceZBAckFailure, node)
	s.zigbeeRetry(t, node)
}

// zigbeeRetry re-contends for the channel after a missing or corrupted
// ACK, up to MaxFrameRetries attempts.
func (s *Sim) zigbeeRetry(t float64, node int) {
	st := &s.nodes[node]
	st.retries++
	if st.retries > s.cfg.MaxFrameRetries {
		s.res.ZigBeeDropped++
		s.trace(t, TraceZBDropped, node)
		s.schedule(t+s.nextPacketDelay(), evZigBeeNextPacket, node)
		return
	}
	s.res.ZigBeeRetries++
	s.trace(t, TraceZBRetry, node)
	st.nb = 0
	st.be = zigbeeMinBE
	s.scheduleZigBeeBackoff(t, node)
}

// receiveZigBeeBurst simulates chip-level reception of a burst (data
// frame or ACK): every chip's SINR follows from the WiFi segment active
// at its time; chips flip with the implied error probability and each
// symbol is re-despread against the real chip tables. Any despreading
// error fails the burst (the FCS catches it). linkDist is the ZigBee
// hop's own distance, wifiDist the interferer's distance to the listener.
//
// Chips travel packed, one symbol per word (chip c at bit c), so a flip
// is an XOR and despreading is sixteen XOR-popcounts.
//
//sledzig:noalloc
func (s *Sim) receiveZigBeeBurst(start float64, numChips int, linkDist, wifiDist float64) bool {
	sigDBm, err := channel.ZigBeeRxDBm(linkDist, s.cfg.ZigBeeTxGain)
	if err != nil {
		return false
	}
	pl := channel.PathLossDB(wifiDist, 1) - float64(s.cfg.WiFiTxGain-channel.WiFiReferenceGain)

	chipDur := 1.0 / zigbee.ChipRate
	numSymbols := numChips / zigbee.ChipsPerSymbol
	end := start + float64(numChips)*chipDur
	//sledvet:ignore hotalloc the timeline appends onto s.segs, which keeps its capacity across bursts, so it grows only until it holds the longest timeline of the run
	segs := s.interferenceTimeline(start, end, pl, dsp.FromDB(sigDBm))

	segIdx := 0
	for sym := 0; sym < numSymbols; sym++ {
		symValue := s.rng.Intn(16)
		clean := zigbee.ChipWord(symValue)
		chips := clean
		symStart := start + float64(sym*zigbee.ChipsPerSymbol)*chipDur
		for c := 0; c < zigbee.ChipsPerSymbol; c++ {
			ct := symStart + (float64(c)+0.5)*chipDur
			for segIdx+1 < len(segs) && ct >= segs[segIdx].end {
				segIdx++
			}
			if p := segs[segIdx].pFlip; p > 0 && s.rng.Float64() < p {
				chips ^= 1 << c
			}
		}
		// An unflipped window always despreads to its own symbol.
		if chips == clean {
			continue
		}
		if got, _ := zigbee.DespreadWord(chips); got != symValue {
			return false
		}
	}
	return true
}

// interferenceSegment is a span of constant decoding-effective WiFi
// interference at the ZigBee receiver, ending at end.
type interferenceSegment struct {
	end float64
	// pFlip is the chip error probability while the segment lasts. The
	// SINR is constant over a segment, so it is computed once here rather
	// than once per chip.
	pFlip float64
}

// interferenceTimeline flattens the WiFi transmission log into contiguous
// constant-interference segments covering [t0, t1] for a ZigBee signal of
// sigMW at the receiver. The segments live in the simulator's scratch
// buffer and stay valid until the next call.
func (s *Sim) interferenceTimeline(t0, t1, pathLossDB, sigMW float64) []interferenceSegment {
	noise := dsp.FromDB(channel.NoiseFloorDBm)
	pre := s.cfg.Profile.preambleInterferenceMW(pathLossDB, s.cfg.WidebandSuppressionDB)
	pay := s.cfg.Profile.effectiveInterferenceMW(pathLossDB, s.cfg.PilotSuppressionDB, s.cfg.WidebandSuppressionDB)
	segs := s.segs[:0]
	cursor := t0
	for _, tx := range s.wifiLog {
		if tx.end <= cursor || tx.start >= t1 {
			continue
		}
		segs, cursor = appendSegment(segs, cursor, math.Min(tx.start, t1), 0, sigMW, noise) // idle gap before this PPDU
		segs, cursor = appendSegment(segs, cursor, math.Min(math.Min(tx.preambleEnd, tx.end), t1), pre, sigMW, noise)
		segs, cursor = appendSegment(segs, cursor, math.Min(tx.end, t1), pay, sigMW, noise)
		if cursor >= t1 {
			break
		}
	}
	segs, _ = appendSegment(segs, cursor, t1, 0, sigMW, noise)
	s.segs = segs
	return segs
}

// appendSegment extends the timeline from cursor to end at interference
// interfMW and returns the new cursor; empty spans add nothing.
func appendSegment(segs []interferenceSegment, cursor, end, interfMW, sigMW, noiseMW float64) ([]interferenceSegment, float64) {
	if end <= cursor {
		return segs, cursor
	}
	p := chipErrorProbability(sigMW / (interfMW + noiseMW))
	return append(segs, interferenceSegment{end: end, pFlip: p}), end
}
