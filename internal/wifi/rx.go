package wifi

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"sledzig/internal/bits"
	"sledzig/internal/dsp"
	"sledzig/internal/obs/trace"
)

// RxResult is the output of the receive chain.
type RxResult struct {
	Mode       Mode
	PSDULength int
	// DataBits is the descrambled logical stream: SERVICE + PSDU + tail +
	// pad. For SledZig frames this is where the extra bits live before the
	// core decoder strips them.
	DataBits []bits.Bit
	// PSDU is the payload extracted from DataBits (standard frames).
	PSDU []byte
	// DataPoints are the equalized constellation points of each DATA
	// symbol — the SledZig receiver inspects these to detect the protected
	// ZigBee channel.
	DataPoints [][]complex128
}

// Receiver demodulates PPDUs generated by Transmitter. Synchronization is
// assumed perfect (the simulator controls sample alignment); channel
// estimation uses the two long training symbols, so flat or mildly
// frequency-selective channels are equalized. The capture is rounded to
// complex64 once on entry and demodulated at that width (see rx32.go).
type Receiver struct {
	// Seed must match the transmitter's scrambler seed (0 selects
	// DefaultScramblerSeed). A real receiver recovers it from the SERVICE
	// field; the simulator shares it out of band.
	Seed uint8
	// Convention must match the transmitter's pipeline convention.
	Convention Convention
	// Soft selects max-log LLR demapping with a soft-metric Viterbi,
	// worth ~2 dB over the default hard-decision chain.
	Soft bool
	// HardFallback enables the first rung of the degradation ladder: when
	// the soft chain fails past the SIGNAL field (length mismatch,
	// non-finite LLRs from a degenerate channel estimate), the frame is
	// re-demodulated once with hard decisions before the error is
	// surfaced. Only meaningful with Soft set.
	HardFallback bool
	// Resync enables the second rung: when decoding at sample 0 fails
	// (leading garbage, a capture that started early), the receiver scans
	// the capture for the STS/LTS preamble and retries once from the
	// detected PPDU start.
	Resync bool
	// Trace, when non-nil, receives one child span per pipeline stage of
	// this frame's demodulation (rx.channel_estimate → rx.signal →
	// rx.equalize → rx.demap → rx.deinterleave → rx.viterbi →
	// rx.descramble). A nil Trace costs one nil check per stage.
	Trace *trace.Frame
}

// rxScratch holds every intermediate buffer of one frame's demodulation.
// Instances are recycled through a pool, so a steady-state receiver touches
// the allocator only to grow a frame's own RxResult buffers.
type rxScratch struct {
	wave32   []complex64 // the capture, rounded once on entry
	freq32   []complex64 // 64-bin FFT of the current symbol
	pts32    []complex64 // equalized points of one symbol
	hInv32   []complex64 // reciprocal data-subcarrier channel gains
	hPilot32 []complex64 // reciprocal pilot channel gains

	symBits []bits.Bit // one symbol's demapped bits (hard path)
	symLLRs []float64  // one symbol's LLRs (soft path)
	rxBits  []bits.Bit // whole-frame deinterleaved coded bits
	rxLLRs  []float64  // whole-frame deinterleaved LLRs

	mother       []bits.Bit // depunctured mother stream
	motherErased []bool
	motherLLRs   []float64
	scrambled    []bits.Bit // Viterbi output, still scrambled
}

var rxScratchPool = sync.Pool{New: func() any {
	return &rxScratch{
		freq32:   make([]complex64, NumSubcarriers),
		pts32:    make([]complex64, NumDataSubcarriers),
		hInv32:   make([]complex64, NumDataSubcarriers),
		hPilot32: make([]complex64, NumPilotSubcarriers),
	}
}}

// The LTS reference vectors are identical for every frame; compute them
// once instead of re-deriving (and re-allocating) them per channel estimate.
var (
	ltsCacheOnce sync.Once
	ltsRefCache  []complex128 // 48 data-subcarrier reference values
	ltsFreqCache []complex128 // 64-bin LTS frequency-domain sequence
)

func ltsCached() (ref, freq []complex128) {
	ltsCacheOnce.Do(func() {
		ltsRefCache = LTSReference()
		ltsFreqCache = ltsFreq()
	})
	return ltsRefCache, ltsFreqCache
}

// growF64 returns s resized to n elements, reusing capacity.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Receive decodes a complete PPDU waveform starting at sample 0.
func (r Receiver) Receive(waveform []complex128) (*RxResult, error) {
	res := &RxResult{}
	if err := r.ReceiveInto(waveform, res); err != nil {
		return nil, err
	}
	return res, nil
}

// ReceiveInto is Receive demodulating into a caller-provided result whose
// buffers (DataBits, PSDU, DataPoints) are reused across calls: a receiver
// that recycles one RxResult per worker decodes frames without allocating
// in steady state. The previous contents of res are overwritten.
//
// When HardFallback or Resync are set, a failed demodulation walks the
// degradation ladder (soft→hard retry, then preamble-scan resync) before
// the original error is returned.
//
//sledzig:noalloc
func (r Receiver) ReceiveInto(waveform []complex128, res *RxResult) error {
	err := r.receiveOnce(waveform, res, r.Soft)
	if err == nil {
		return nil
	}
	m := phy()
	// Rung one: the soft chain failed on this frame's DATA field — hard
	// decisions are cruder but structurally more tolerant (no metric
	// arithmetic to overflow), so give the frame one hard pass.
	if r.Soft && r.HardFallback && errors.Is(err, ErrDemodFailed) {
		m.rxFallbacks.Inc()
		if err2 := r.receiveOnce(waveform, res, false); err2 == nil {
			m.rxFallbackOK.Inc()
			return nil
		}
	}
	// Rung two: nothing decodable at sample 0 — scan for a preamble
	// further into the capture (leading noise, a recording that started
	// before AGC settled) and retry once from the detected start.
	if r.Resync {
		m.rxResyncs.Inc()
		mk := r.Trace.Begin("rx.preamble_detect")
		start, derr := (Synchronizer{}).Detect(waveform)
		mk.End()
		if derr == nil && start > 0 {
			if err2 := r.receiveOnce(waveform[start:], res, r.Soft); err2 == nil {
				m.rxResyncOK.Inc()
				return nil
			}
		}
	}
	return err
}

// softViterbiInto is the soft-decision Viterbi entry point, indirect so the
// degradation tests can force a soft-chain failure deterministically.
var softViterbiInto = ViterbiDecodeSoftInto

// receiveOnce runs one pass of the demodulation pipeline with an explicit
// hard/soft selection — the unit the degradation ladder retries.
//
//sledzig:noalloc
func (r Receiver) receiveOnce(waveform []complex128, res *RxResult, soft bool) error {
	m := phy()
	if len(waveform) < PreambleLength+SymbolLength {
		err := fmt.Errorf("wifi: %w (%d samples) for preamble and SIGNAL", ErrShortWaveform, len(waveform))
		m.rxFail(m.rxFailShort, "short_waveform", err)
		return err
	}

	s := rxScratchPool.Get().(*rxScratch)
	defer rxScratchPool.Put(s)
	s.wave32 = dsp.Narrow(s.wave32, waveform)

	t0 := m.rxSync.Start()
	mk := r.Trace.Begin("rx.channel_estimate")
	if err := estimateChannelInto32(s, s.wave32); err != nil {
		mk.End()
		err = fmt.Errorf("wifi: %w: channel estimate: %w", ErrDemodFailed, err)
		m.rxSync.Fail(t0)
		m.rxFail(m.rxFailChanEst, "channel_estimate", err)
		return err
	}
	mk.End()
	m.rxSync.Done(t0, 0)

	// SIGNAL symbol.
	t0 = m.rxSignal.Start()
	mk = r.Trace.Begin("rx.signal")
	sigStart := PreambleLength
	if err := equalizeSymbolInto32(s.pts32, s, s.wave32[sigStart:sigStart+SymbolLength], 0); err != nil {
		mk.End()
		err = fmt.Errorf("wifi: %w: SIGNAL equalize: %w", ErrDemodFailed, err)
		m.rxSignal.Fail(t0)
		m.rxFail(m.rxFailSignal, "signal", err)
		return err
	}
	mode, length, err := decodeSignalSymbolInto32(s)
	mk.End()
	if err != nil {
		err = fmt.Errorf("wifi: SIGNAL decode: %w: %w", ErrBadSignal, err)
		m.rxSignal.Fail(t0)
		m.rxFail(m.rxFailSignal, "signal", err)
		return err
	}
	m.rxSignal.Done(t0, 0)

	nSym := NumDataSymbols(mode, length)
	need := PreambleLength + (1+nSym)*SymbolLength
	if len(s.wave32) < need {
		err := fmt.Errorf("wifi: %w: waveform has %d samples, PPDU needs %d", ErrShortWaveform, len(s.wave32), need)
		m.rxFail(m.rxFailTrunc, "truncated", err)
		return err
	}

	// DATA symbols: equalized points land in the pooled narrow scratch and
	// are widened into the result's recycled DataPoints matrix.
	if cap(res.DataPoints) < nSym {
		old := res.DataPoints
		res.DataPoints = make([][]complex128, nSym)
		copy(res.DataPoints, old[:cap(old)])
	}
	res.DataPoints = res.DataPoints[:nSym]
	nCBPS := mode.CodedBitsPerSymbol()
	if soft {
		s.rxLLRs = growF64(s.rxLLRs, nSym*nCBPS)
		s.symLLRs = growF64(s.symLLRs, nCBPS)
	} else {
		s.rxBits = growBits(s.rxBits, nSym*nCBPS)
		s.symBits = growBits(s.symBits, nCBPS)
	}
	for sym := 0; sym < nSym; sym++ {
		if cap(res.DataPoints[sym]) < NumDataSubcarriers {
			res.DataPoints[sym] = make([]complex128, NumDataSubcarriers)
		}
		pts := res.DataPoints[sym][:NumDataSubcarriers]
		res.DataPoints[sym] = pts

		start := PreambleLength + (1+sym)*SymbolLength
		t0 = m.rxEqualize.Start()
		mk = r.Trace.Begin("rx.equalize")
		if err := equalizeSymbolInto32(s.pts32, s, s.wave32[start:start+SymbolLength], sym+1); err != nil {
			mk.End()
			m.rxEqualize.Fail(t0)
			return fmt.Errorf("wifi: %w: equalize symbol %d: %w", ErrDemodFailed, sym, err)
		}
		for i, v := range s.pts32 {
			pts[i] = complex128(v)
		}
		mk.End()
		m.rxEqualize.Done(t0, 0)

		off := sym * nCBPS
		if soft {
			t0 = m.rxDemap.Start()
			mk = r.Trace.Begin("rx.demap")
			if err := r.Convention.SoftDemapAll64Into(s.symLLRs, mode.Modulation, s.pts32); err != nil {
				mk.End()
				m.rxDemap.Fail(t0)
				return fmt.Errorf("wifi: %w: soft demap: %w", ErrDemodFailed, err)
			}
			mk.End()
			m.rxDemap.Done(t0, 0)
			t0 = m.rxDeinterlv.Start()
			mk = r.Trace.Begin("rx.deinterleave")
			if err := r.Convention.DeinterleaveFloatsInto(s.rxLLRs[off:off+nCBPS], s.symLLRs, mode.Modulation); err != nil {
				mk.End()
				m.rxDeinterlv.Fail(t0)
				return fmt.Errorf("wifi: %w: deinterleave: %w", ErrDemodFailed, err)
			}
			mk.End()
			m.rxDeinterlv.Done(t0, 0)
			continue
		}
		t0 = m.rxDemap.Start()
		mk = r.Trace.Begin("rx.demap")
		if err := r.Convention.DemapAll64Into(s.symBits, mode.Modulation, s.pts32); err != nil {
			mk.End()
			m.rxDemap.Fail(t0)
			return fmt.Errorf("wifi: %w: demap: %w", ErrDemodFailed, err)
		}
		mk.End()
		m.rxDemap.Done(t0, 0)
		t0 = m.rxDeinterlv.Start()
		mk = r.Trace.Begin("rx.deinterleave")
		if err := r.Convention.DeinterleaveCInto(s.rxBits[off:off+nCBPS], s.symBits, mode.Modulation); err != nil {
			mk.End()
			m.rxDeinterlv.Fail(t0)
			return fmt.Errorf("wifi: %w: deinterleave: %w", ErrDemodFailed, err)
		}
		mk.End()
		m.rxDeinterlv.Done(t0, 0)
	}

	// Viterbi over the whole DATA field. Termination state is unknown in
	// general (pad bits keep shifting the register), so decode untailed.
	t0 = m.rxViterbi.Start()
	mk = r.Trace.Begin("rx.viterbi")
	if soft {
		err = checkFiniteLLRs(s.rxLLRs)
		if err == nil {
			s.motherLLRs, err = DepunctureFloatsInto(s.motherLLRs, s.rxLLRs, mode.CodeRate)
		}
		if err == nil {
			s.scrambled, err = softViterbiInto(s.scrambled, s.motherLLRs, false)
		}
	} else {
		s.mother, s.motherErased, err = DepunctureInto(s.mother, s.motherErased, s.rxBits, mode.CodeRate)
		if err == nil {
			s.scrambled, err = ViterbiDecodeInto(s.scrambled, s.mother, s.motherErased, false)
		}
	}
	mk.End()
	if err != nil {
		err = fmt.Errorf("wifi: %w: viterbi: %w", ErrDemodFailed, err)
		m.rxViterbi.Fail(t0)
		m.rxFail(m.rxFailDecode, "viterbi", err)
		return err
	}
	m.rxViterbi.Done(t0, len(s.scrambled)/8)

	seed := r.Seed
	if seed == 0 {
		seed = DefaultScramblerSeed
	}
	t0 = m.rxDescramble.Start()
	mk = r.Trace.Begin("rx.descramble")
	res.DataBits = growBits(res.DataBits, len(s.scrambled))
	if err := ScrambleWithSeedInto(res.DataBits, s.scrambled, seed); err != nil {
		mk.End()
		err = fmt.Errorf("wifi: %w: descramble: %w", ErrDemodFailed, err)
		m.rxDescramble.Fail(t0)
		m.rxFail(m.rxFailDecode, "descramble", err)
		return err
	}
	mk.End()
	m.rxDescramble.Done(t0, 0)

	if need := serviceBits + 8*length; len(res.DataBits) < need {
		err := fmt.Errorf("wifi: %w: %d decoded bits cannot hold a %d-octet PSDU", ErrDemodFailed, len(res.DataBits), length)
		m.rxFail(m.rxFailDecode, "psdu", err)
		return err
	}
	psduBits := res.DataBits[serviceBits : serviceBits+8*length]
	if cap(res.PSDU) < length {
		res.PSDU = make([]byte, length)
	}
	res.PSDU = res.PSDU[:length]
	if err := bits.ToBytesInto(res.PSDU, psduBits); err != nil {
		err = fmt.Errorf("wifi: %w: PSDU extract: %w", ErrDemodFailed, err)
		m.rxFail(m.rxFailDecode, "psdu", err)
		return err
	}
	res.Mode = mode
	res.PSDULength = length
	m.rxFrames.Inc()
	return nil
}

// checkFiniteLLRs rejects soft metrics containing NaN or Inf — the
// signature of a degenerate channel estimate dividing by a near-zero gain.
// The hard chain tolerates such points (a sign test never overflows), so
// this is what routes a frame down the soft→hard fallback rung.
func checkFiniteLLRs(llrs []float64) error {
	for i, v := range llrs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("wifi: non-finite LLR at coded bit %d", i)
		}
	}
	return nil
}
