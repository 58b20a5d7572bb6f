package wifi

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"sledzig/internal/bits"
	"sledzig/internal/dsp"
)

// Golden tests for the complex64 receive path: it must recover the same
// payloads as the complex128 oracle (oracle_test.go) over realistic
// channels, and its equalized constellation points must stay within a
// float32-rounding-scale distance of the oracle's.

// narrowWideChannels builds the impairment menu the receiver and the
// oracle are compared under: clean, AWGN, a flat complex gain, and a mild two-tap
// multipath channel.
func narrowWideChannels(rng *rand.Rand, wave []complex128) map[string][]complex128 {
	awgn := make([]complex128, len(wave))
	for i, v := range wave {
		awgn[i] = v + complex(rng.NormFloat64(), rng.NormFloat64())*0.003
	}
	flat := make([]complex128, len(wave))
	gain := cmplx.Rect(0.8, 0.6)
	for i, v := range wave {
		flat[i] = v * gain
	}
	multi := make([]complex128, len(wave))
	for i, v := range wave {
		multi[i] = v
		if i >= 3 {
			multi[i] += wave[i-3] * complex(0.08, -0.05)
		}
		multi[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * 0.002
	}
	return map[string][]complex128{
		"clean":     wave,
		"awgn":      awgn,
		"flat":      flat,
		"multipath": multi,
	}
}

// TestNarrowWideParity demodulates every transmittable mode through the
// complex64 receiver and the complex128 oracle, hard and soft, over each
// impairment, and requires the recovered PSDUs to be identical and the
// equalized points to agree to float32 rounding scale.
func TestNarrowWideParity(t *testing.T) {
	forEachParityCase(t, func(desc string, ch []complex128, soft bool) {
		wide := wideReceive(t, ch, soft, wordACS)
		narrow, err := (Receiver{Soft: soft}).Receive(ch)
		if err != nil {
			t.Fatalf("%s: narrow: %v", desc, err)
		}
		if string(narrow.PSDU) != string(wide.PSDU) {
			t.Fatalf("%s: narrow PSDU differs from wide", desc)
		}
		if narrow.Mode != wide.Mode {
			t.Fatalf("%s: mode %v vs %v", desc, narrow.Mode, wide.Mode)
		}
		// Precision: equalized points must agree to a scale set by
		// float32 rounding of unit-power symbols, far below the minimum
		// decision distance of QAM-256 (~0.077).
		const tol = 2e-4
		for s := range wide.DataPoints {
			for i := range wide.DataPoints[s] {
				d := cmplx.Abs(narrow.DataPoints[s][i] - wide.DataPoints[s][i])
				if d > tol {
					t.Fatalf("%s: symbol %d point %d: |narrow-wide| = %g > %g",
						desc, s, i, d, tol)
				}
			}
		}
	})
}

// TestNarrowEVMFloor pins the narrow path's clean-channel error floor: the
// float32 data path must keep EVM below 1e-6 — five orders of magnitude
// under the EVM of a barely-decodable capture.
func TestNarrowEVMFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	psdu := bits.RandomBytes(rng, 400)
	frame, err := Transmitter{Mode: Mode{QAM64, Rate34}}.Frame(psdu)
	if err != nil {
		t.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatal(err)
	}
	res, err := (Receiver{}).Receive(wave)
	if err != nil {
		t.Fatal(err)
	}
	for s, evm := range SymbolEVM(QAM64, res.DataPoints) {
		if evm > 1e-6 {
			t.Fatalf("symbol %d: narrow clean-channel EVM %g > 1e-6", s, evm)
		}
		if math.IsNaN(evm) {
			t.Fatalf("symbol %d: EVM is NaN", s)
		}
	}
}

// TestNarrowZeroGainChannel exercises the narrow path's degenerate-channel
// error: a zeroed LTS must fail channel estimation, not divide by zero.
func TestNarrowZeroGainChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	psdu := bits.RandomBytes(rng, 50)
	frame, err := Transmitter{Mode: Mode{QPSK, Rate12}}.Frame(psdu)
	if err != nil {
		t.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatal(err)
	}
	for i := 160; i < PreambleLength; i++ {
		wave[i] = 0
	}
	if _, err := (Receiver{}).Receive(wave); err == nil {
		t.Fatal("narrow receive succeeded on a zeroed LTS")
	}
}

// TestDemap64MatchesWide pins the exactness property the narrow hard
// demapper relies on: converting a complex64 point to complex128 is exact,
// so narrow and wide hard demaps agree bit for bit on every input.
func TestDemap64MatchesWide(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, c := range []Convention{ConventionIEEE, ConventionPaper} {
		for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64, QAM256} {
			bpsc := m.BitsPerSubcarrier()
			pts32 := make([]complex64, NumDataSubcarriers)
			pts64 := make([]complex128, NumDataSubcarriers)
			for trial := 0; trial < 50; trial++ {
				for i := range pts32 {
					pts32[i] = complex(float32(rng.NormFloat64()*0.8), float32(rng.NormFloat64()*0.8))
					pts64[i] = complex128(pts32[i])
				}
				got := make([]bits.Bit, len(pts32)*bpsc)
				want := make([]bits.Bit, len(pts32)*bpsc)
				if err := c.DemapAll64Into(got, m, pts32); err != nil {
					t.Fatal(err)
				}
				if err := c.DemapAllCInto(want, m, pts64); err != nil {
					t.Fatal(err)
				}
				if !bits.Equal(got, want) {
					t.Fatalf("%v %v: narrow hard demap differs from wide", c, m)
				}
			}
		}
	}
}

// FuzzDemap64RoundTrip drives the table's demappers with arbitrary point
// coordinates: the narrow and wide hard demaps must agree exactly with
// each other and the per-point oracle, the narrow LLRs exactly with the
// float32 search over every point and to float32 rounding scale with the
// float64 one.
func FuzzDemap64RoundTrip(f *testing.F) {
	f.Add(float32(0.3), float32(-0.9), uint8(2), uint8(0))
	f.Add(float32(-1.1), float32(1.1), uint8(4), uint8(1))
	f.Add(float32(0), float32(0), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, re, im float32, modSel, convSel uint8) {
		mods := []Modulation{BPSK, QPSK, QAM16, QAM64, QAM256}
		m := mods[int(modSel)%len(mods)]
		c := Convention(convSel % 2)
		if math.IsNaN(float64(re)) || math.IsNaN(float64(im)) ||
			math.IsInf(float64(re), 0) || math.IsInf(float64(im), 0) {
			t.Skip()
		}
		if math.Abs(float64(re)) > 8 || math.Abs(float64(im)) > 8 {
			t.Skip()
		}
		p32 := []complex64{complex(re, im)}
		p64 := []complex128{complex128(p32[0])}
		bpsc := m.BitsPerSubcarrier()

		got := make([]bits.Bit, bpsc)
		want := make([]bits.Bit, bpsc)
		if err := c.DemapAll64Into(got, m, p32); err != nil {
			t.Fatal(err)
		}
		if err := c.DemapAllCInto(want, m, p64); err != nil {
			t.Fatal(err)
		}
		if !bits.Equal(got, want) {
			t.Fatalf("%v %v (%g,%g): hard demap narrow %v != wide %v", c, m, re, im, got, want)
		}
		if oracle, _ := c.DemapSymbolC(m, p64[0]); !bits.Equal(got, oracle) {
			t.Fatalf("%v %v (%g,%g): hard demap %v != oracle %v", c, m, re, im, got, oracle)
		}

		gotL := make([]float64, bpsc)
		wantL := make([]float64, bpsc)
		if err := c.SoftDemapAll64Into(gotL, m, p32); err != nil {
			t.Fatal(err)
		}
		if err := c.softDemapSearch64Into(wantL, m, p32); err != nil {
			t.Fatal(err)
		}
		for b := range gotL {
			if gotL[b] != wantL[b] {
				t.Fatalf("%v %v (%g,%g): LLR bit %d %g != float32 search %g", c, m, re, im, b, gotL[b], wantL[b])
			}
		}
		if err := c.SoftDemapAllInto(wantL, m, p64); err != nil {
			t.Fatal(err)
		}
		// Squared distances grow with |p|^2; scale the tolerance with the
		// largest distance in play.
		scale := (float64(re)*float64(re) + float64(im)*float64(im) + 4) * 1e-5
		for b := range gotL {
			if math.Abs(gotL[b]-wantL[b]) > scale {
				t.Fatalf("%v %v (%g,%g): LLR bit %d narrow %g vs wide %g (tol %g)",
					c, m, re, im, b, gotL[b], wantL[b], scale)
			}
		}
	})
}

// TestNarrowEqualizeAgainstWide compares the complex64 equalizer with the
// oracle's symbol by symbol through a frequency-selective channel, bounding the narrow
// pipeline's added EVM directly (not just the decision outcomes).
func TestNarrowEqualizeAgainstWide(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	psdu := bits.RandomBytes(rng, 300)
	frame, err := Transmitter{Mode: Mode{QAM256, Rate56}}.Frame(psdu)
	if err != nil {
		t.Fatal(err)
	}
	wave, err := frame.Waveform()
	if err != nil {
		t.Fatal(err)
	}
	ch := make([]complex128, len(wave))
	for i, v := range wave {
		ch[i] = v * cmplx.Rect(1.1, -0.4)
		if i >= 2 {
			ch[i] += wave[i-2] * complex(-0.06, 0.09)
		}
	}
	wide := wideReceive(t, ch, false, wordACS)
	narrow, err := (Receiver{}).Receive(ch)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for s := range wide.DataPoints {
		for i := range wide.DataPoints[s] {
			if d := cmplx.Abs(narrow.DataPoints[s][i] - wide.DataPoints[s][i]); d > worst {
				worst = d
			}
		}
	}
	// QAM-256's decision distance is ~0.077; the float32 path must sit
	// hundreds of times below it even through a selective channel.
	if worst > 5e-4 {
		t.Fatalf("worst narrow-vs-wide point distance %g > 5e-4", worst)
	}
}

// TestNarrowScratchReuse decodes many frames through one receiver and pool
// to catch stale narrow-scratch state leaking between frames of different
// lengths and modes.
func TestNarrowScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	res := &RxResult{}
	r := Receiver{}
	for trial := 0; trial < 12; trial++ {
		mode := Mode{QPSK, Rate12}
		if trial%3 == 1 {
			mode = Mode{QAM64, Rate23}
		} else if trial%3 == 2 {
			mode = Mode{QAM256, Rate34}
		}
		n := 40 + rng.Intn(500)
		psdu := bits.RandomBytes(rng, n)
		frame, err := Transmitter{Mode: mode}.Frame(psdu)
		if err != nil {
			t.Fatal(err)
		}
		wave, err := frame.Waveform()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ReceiveInto(wave, res); err != nil {
			t.Fatalf("trial %d (%v, %d B): %v", trial, mode, n, err)
		}
		if string(res.PSDU) != string(psdu) {
			t.Fatalf("trial %d: payload mismatch", trial)
		}
	}
}

// TestNarrowDSPPrimitives pins the receiver's complex64 FFT against the
// complex128 one on receiver-shaped data.
func TestNarrowDSPPrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	x64 := make([]complex128, NumSubcarriers)
	for i := range x64 {
		x64[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x32 := dsp.Narrow(nil, x64)

	fwide := make([]complex128, NumSubcarriers)
	fnarrow := make([]complex64, NumSubcarriers)
	if err := dsp.FFTInto(fwide, x64); err != nil {
		t.Fatal(err)
	}
	if err := dsp.FFTInto32(fnarrow, x32); err != nil {
		t.Fatal(err)
	}
	for i := range fwide {
		if d := cmplx.Abs(complex128(fnarrow[i]) - fwide[i]); d > 1e-4 {
			t.Fatalf("FFT bin %d: |narrow-wide| = %g", i, d)
		}
	}
}
