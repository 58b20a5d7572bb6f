package sledzig

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	for _, conv := range []Convention{ConventionIEEE, ConventionPaper} {
		for _, ch := range []Channel{CH1, CH2, CH3, CH4} {
			enc, err := NewEncoder(Config{
				Modulation: QAM64,
				CodeRate:   Rate34,
				Channel:    ch,
				Convention: conv,
			})
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte("the quick brown fox jumps over the lazy dog 0123456789")
			frame, err := enc.Encode(payload)
			if err != nil {
				t.Fatal(err)
			}
			wave, err := frame.Waveform()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(Config{Convention: conv})
			if err != nil {
				t.Fatal(err)
			}
			res, err := dec.Decode(wave)
			if err != nil {
				t.Fatalf("%v %v: %v", conv, ch, err)
			}
			if res.Channel != ch {
				t.Fatalf("%v: detected %v, want %v", conv, res.Channel, ch)
			}
			if !bytes.Equal(res.Payload, payload) {
				t.Fatalf("%v %v: payload mismatch", conv, ch)
			}
		}
	}
}

func TestEncoderRequiresChannel(t *testing.T) {
	if _, err := NewEncoder(Config{Modulation: QAM16, CodeRate: Rate12}); err == nil {
		t.Fatal("encoder accepted config without a channel")
	}
}

func TestOverheadMatchesPaperRange(t *testing.T) {
	// The paper's loss spans 6.94%..14.58% across its Table IV settings.
	for _, tc := range []struct {
		mod  Modulation
		rate CodeRate
		ch   Channel
		want float64
	}{
		{QAM16, Rate12, CH1, 14.58},
		{QAM16, Rate34, CH4, 6.94},
		{QAM256, Rate56, CH2, 13.12},
	} {
		enc, err := NewEncoder(Config{Modulation: tc.mod, CodeRate: tc.rate, Channel: tc.ch})
		if err != nil {
			t.Fatal(err)
		}
		if got := 100 * enc.OverheadFraction(); math.Abs(got-tc.want) > 0.01 {
			t.Errorf("%v r=%v %v: overhead %.2f%%, want %.2f%%", tc.mod, tc.rate, tc.ch, got, tc.want)
		}
	}
}

func TestPowerReductionConstants(t *testing.T) {
	if v := PowerReductionDB(QAM64); math.Abs(v-13.2) > 0.05 {
		t.Fatalf("QAM-64 reduction %.2f dB, want 13.2", v)
	}
}

func TestMeasureBandReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 400)
	rng.Read(payload)
	drop, err := MeasureBandReduction(Config{Modulation: QAM256, CodeRate: Rate34, Channel: CH4}, payload)
	if err != nil {
		t.Fatal(err)
	}
	// CH4 has no pilot, so the measured drop should approach the
	// theoretical 19.3 dB minus spectral leakage.
	if drop < 12 || drop > 21 {
		t.Fatalf("QAM-256 CH4 band reduction %.1f dB, want roughly 13-19", drop)
	}
}

func TestChannelFromNumbers(t *testing.T) {
	ch, err := ChannelFromNumbers(26, 13)
	if err != nil {
		t.Fatal(err)
	}
	if ch != CH4 {
		t.Fatalf("ZigBee 26 on WiFi 13 = %v, want CH4", ch)
	}
}

func TestSimulateCoexistenceSledZigBeatsNormal(t *testing.T) {
	base := CoexistenceConfig{
		Modulation: QAM256,
		CodeRate:   Rate34,
		Channel:    CH3,
		DWZ:        4, DZ: 1, DW: 1,
		DutyRatio: 1, Duration: 8, Seed: 42,
		EnergyCCA: true,
	}
	normal := base
	normal.UseSledZig = false
	sled := base
	sled.UseSledZig = true

	rn, err := SimulateCoexistence(normal)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SimulateCoexistence(sled)
	if err != nil {
		t.Fatal(err)
	}
	if rs.ZigBeeThroughputBps < 4*rn.ZigBeeThroughputBps+1 {
		t.Fatalf("SledZig %.1f kbit/s vs normal %.1f kbit/s: expected a large win",
			rs.ZigBeeThroughputBps/1e3, rn.ZigBeeThroughputBps/1e3)
	}
	if rs.WiFiGoodputFraction >= 1 || rs.WiFiGoodputFraction < 0.85 {
		t.Fatalf("SledZig WiFi goodput fraction %.3f outside the paper's loss range", rs.WiFiGoodputFraction)
	}
	if rn.InBandRSSIDBm-rs.InBandRSSIDBm < 5 {
		t.Fatalf("in-band RSSI drop %.1f dB too small", rn.InBandRSSIDBm-rs.InBandRSSIDBm)
	}
}

// TestEncodeAllocations pins the SledZig facade encode at two allocations
// per frame, with or without the race detector: one box holding the
// Frame, its core result and its wifi.Frame, and the frame's packed
// encoder input. It also pins what a 1500 B QAM-16 r1/2 frame keeps: its
// 140 symbols of 96 bits pack into 1,680 octets, where one bit per byte
// cost ~13.7 kB.
func TestEncodeAllocations(t *testing.T) {
	enc, err := NewEncoder(Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH2})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1500)
	if _, err := enc.Encode(payload); err != nil { // grow the plan's layout
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := enc.Encode(payload); err != nil {
			t.Fatal(err)
		}
	}); avg > 2 {
		t.Errorf("Encode allocates %.1f times per frame, want at most 2", avg)
	}

	enc, err = NewEncoder(Config{Modulation: QAM16, CodeRate: Rate12, Channel: CH4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encode(payload); err != nil { // grow the plan's layout
		t.Fatal(err)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := enc.Encode(payload); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls; perCall > 2.5*1024 {
		t.Errorf("Encode of a 1500 B QAM-16 r1/2 frame allocates %.0f B per call, want at most 2.5 KiB", perCall)
	}

	// A 1-octet frame allocates its box and its encoder input alone: the
	// pin catches the box drifting into a larger size class. More calls
	// dilute any stray allocation elsewhere in the process.
	const oneCalls = 1000
	runtime.ReadMemStats(&before)
	for i := 0; i < oneCalls; i++ {
		if _, err := enc.Encode(payload[:1]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := float64(after.TotalAlloc-before.TotalAlloc) / oneCalls; perCall > 160 {
		t.Errorf("Encode of a 1 B QAM-16 r1/2 frame allocates %.0f B per call, want at most 160 B", perCall)
	}
}

// TestNewEncoderCarriesNoReceiveScratch pins what an encode-only backend
// instance costs: with the plan cache warm, NewEncoder allocates at most
// 1 KiB for every registered codec, since an instance makes its receive
// scratch on its first decode.
func TestNewEncoderCarriesNoReceiveScratch(t *testing.T) {
	for _, name := range Codecs() {
		cfg := Config{Channel: CH2, Codec: name}
		if _, err := NewEncoder(cfg); err != nil { // warm the plan cache
			t.Fatalf("%s: NewEncoder: %v", name, err)
		}
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := NewEncoder(cfg); err != nil {
				t.Fatalf("%s: NewEncoder: %v", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls; perCall > 1024 {
			t.Errorf("%s: NewEncoder allocates %.0f B per call, want at most 1 KiB", name, perCall)
		}
	}
}

// TestMaxPayloadKeepsItsPromise holds MaxPayload(n) to what Encode
// accepts, across SledZig modes and symbol counts on both sides of the
// PSDU bound: the result is never negative, a payload of that size
// encodes into at most n symbols, and one octet more needs more than n
// symbols or fails to encode.
func TestMaxPayloadKeepsItsPromise(t *testing.T) {
	for _, cfg := range []Config{
		{Modulation: QAM16, CodeRate: Rate12, Channel: CH2},
		{Modulation: QAM16, CodeRate: Rate34, Channel: CH4},
		{Modulation: QAM64, CodeRate: Rate34, Channel: CH1},
		{Modulation: QAM64, CodeRate: Rate23, Channel: CH3, Convention: ConventionPaper},
		{Modulation: QAM256, CodeRate: Rate34, Channel: CH3},
	} {
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatalf("NewEncoder(%+v): %v", cfg, err)
		}
		mode := fmt.Sprintf("%v r=%v %v", cfg.Modulation, cfg.CodeRate, cfg.Channel)
		for _, n := range []int{-1, 0, 1, 64, 341, 342, 1000} {
			mp := enc.MaxPayload(n)
			if mp < 0 {
				t.Errorf("%s: MaxPayload(%d) = %d", mode, n, mp)
				continue
			}
			if mp > 0 {
				f, err := enc.Encode(make([]byte, mp))
				if err != nil {
					t.Errorf("%s: MaxPayload(%d) = %d, which Encode rejects: %v", mode, n, mp, err)
				} else if f.NumSymbols() > n {
					t.Errorf("%s: MaxPayload(%d) = %d fills %d symbols", mode, n, mp, f.NumSymbols())
				}
			}
			if f, err := enc.Encode(make([]byte, mp+1)); err == nil && f.NumSymbols() <= n {
				t.Errorf("%s: MaxPayload(%d) = %d, yet %d octets fit in %d symbols", mode, n, mp, mp+1, f.NumSymbols())
			}
		}
	}
}

func TestTransmitBitsAreBinary(t *testing.T) {
	enc, err := NewEncoder(Config{Modulation: QAM16, CodeRate: Rate12, Channel: CH2})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		payload := make([]byte, 1+lr.Intn(64))
		lr.Read(payload)
		frame, err := enc.Encode(payload)
		if err != nil {
			return false
		}
		for _, b := range frame.TransmitBits() {
			if b > 1 {
				return false
			}
		}
		return frame.ExtraBits() == frame.NumSymbols()*enc.ExtraBitsPerSymbol()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	message := make([]byte, 3000)
	rng.Read(message)
	enc, err := NewEncoder(Config{Modulation: QAM64, CodeRate: Rate34, Channel: CH3})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := enc.EncodeMessage(message, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 {
		t.Fatalf("expected multiple fragments, got %d", len(frames))
	}
	rx, err := NewMessageReceiver(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, f := range frames {
		wave, err := f.Waveform()
		if err != nil {
			t.Fatal(err)
		}
		out, err := rx.Feed(wave)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			got = out
		}
	}
	if !bytes.Equal(got, message) {
		t.Fatal("message mismatch through fragmentation")
	}
	if rx.Pending() != 0 {
		t.Fatalf("%d messages pending", rx.Pending())
	}
}

func TestFacadeAccessors(t *testing.T) {
	enc, err := NewEncoder(Config{Modulation: QAM16, CodeRate: Rate12, Channel: CH1})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := enc.Encode([]byte("accessors"))
	if err != nil {
		t.Fatal(err)
	}
	if d := frame.AirtimeSeconds(); d <= 0 || d > 1e-3 {
		t.Fatalf("airtime %g s", d)
	}
	if mp := enc.MaxPayload(10); mp <= 0 {
		t.Fatalf("MaxPayload(10) = %d", mp)
	}
	// A payload of exactly MaxPayload(3) fits in 3 symbols.
	n := enc.MaxPayload(3)
	f3, err := enc.Encode(make([]byte, n))
	if err != nil {
		t.Fatal(err)
	}
	if f3.NumSymbols() != 3 {
		t.Fatalf("MaxPayload(3) filled %d symbols", f3.NumSymbols())
	}
}

func TestDecodeStandardFramePSDU(t *testing.T) {
	// AsStandardFrame reads a plain (non-SledZig) WiFi frame's PSDU.
	enc, err := NewEncoder(Config{Modulation: QAM16, CodeRate: Rate12, Channel: CH2})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := enc.Encode([]byte("payload under the hood"))
	if err != nil {
		t.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dec.Decode(wave, AsStandardFrame())
	if err != nil {
		t.Fatal(err)
	}
	psdu := res.Payload
	// The raw PSDU is the SledZig transmit stream, longer than the
	// embedded payload.
	if len(psdu) < len("payload under the hood") {
		t.Fatalf("PSDU of %d octets too short", len(psdu))
	}
}

func mathCos(x float64) float64 { return math.Cos(x) }
func mathSin(x float64) float64 { return math.Sin(x) }

func TestSenseProtectedChannelFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	capture := make([]complex128, 1<<15)
	for i := range capture {
		capture[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-5
	}
	// Synthesize ZigBee-ish narrowband energy at CH4's offset (+8 MHz).
	for i := range capture {
		phase := 2 * 3.141592653589793 * 8e6 * float64(i) / 20e6
		capture[i] += complex(0.01*mathCos(phase), 0.01*mathSin(phase))
	}
	ch, ok, err := SenseProtectedChannel(capture)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || ch != CH4 {
		t.Fatalf("sensed (%v, %v), want (CH4, true)", ch, ok)
	}
}

// TestEncoderConcurrentUse: one Encoder and one Decoder may serve
// goroutines concurrently, for every codec (the SledZig plan is
// read-only; backend instances serialize behind the facade's mutex).
func TestEncoderConcurrentUse(t *testing.T) {
	for _, name := range Codecs() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Modulation: QAM64, CodeRate: Rate23, Channel: CH1, Codec: name}
			decCfg := Config{}
			if name != CodecSledZig {
				decCfg = Config{Channel: CH1, Codec: name}
			}
			if name == CodecOOK {
				// The OOK message fits one PPDU only at QAM-16 r1/2 here.
				cfg.Modulation, cfg.CodeRate = QAM16, Rate12
			}
			enc, err := NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(decCfg)
			if err != nil {
				t.Fatal(err)
			}
			const workers = 8
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					// Mixed bits: ofdmfi cannot tell its protected band
					// from the other quiet windows when nearly every
					// message chip is low.
					payload := []byte{byte(w), 0xA5, 0x5A, 0xC3, 0x3C, 0x96, 0x69, 0xF0}
					for i := 0; i < 10; i++ {
						// The accessors take no lock: they read nothing
						// an encode writes.
						if enc.MaxPayload(64) < len(payload) || enc.OverheadFraction() <= 0 {
							errs <- fmt.Errorf("worker %d: MaxPayload %d, OverheadFraction %g", w, enc.MaxPayload(64), enc.OverheadFraction())
							return
						}
						frame, err := enc.Encode(payload)
						if err != nil {
							errs <- err
							return
						}
						wave, err := frame.Waveform()
						if err != nil {
							errs <- err
							return
						}
						res, err := dec.Decode(wave)
						if err != nil {
							errs <- err
							return
						}
						if got := res.Payload; got[0] != byte(w) {
							errs <- fmt.Errorf("worker %d got %d", w, got[0])
							return
						}
					}
					errs <- nil
				}(w)
			}
			for w := 0; w < workers; w++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
