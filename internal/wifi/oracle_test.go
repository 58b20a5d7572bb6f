package wifi

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sledzig/internal/bits"
	"sledzig/internal/dsp"
)

// acsPair names the forward-pass kernels one oracle decode runs.
type acsPair struct {
	hard hardACS
	soft softACS
}

var (
	wordACS = acsPair{wordHardACS, wordSoftACS}
	refACS  = acsPair{refHardACS, refSoftACS}
)

// wideChannel is a complex128 LTS channel estimate: one gain per data
// subcarrier and per pilot.
type wideChannel struct {
	h      [NumDataSubcarriers]complex128
	hPilot [NumPilotSubcarriers]complex128
}

// equalize divides one symbol's data points by the channel gains and
// removes the common phase error measured on the pilots.
func (c *wideChannel) equalize(sym []complex128, symbolIndex int) ([]complex128, error) {
	freq, err := FrequencyDomain(sym)
	if err != nil {
		return nil, err
	}
	pts, err := ExtractSubcarriers(freq)
	if err != nil {
		return nil, err
	}
	for i := range pts {
		pts[i] /= c.h[i]
	}
	var cpe complex128
	pol := complex(PilotPolarity(symbolIndex), 0)
	for i, k := range pilotSubcarriers {
		expected := pol
		if k == 21 {
			expected = -pol
		}
		cpe += (freq[bin(k)] / c.hPilot[i]) * cmplx.Conj(expected)
	}
	if cpe != 0 {
		rot := cmplx.Conj(cpe / complex(cmplx.Abs(cpe), 0))
		for i := range pts {
			pts[i] *= rot
		}
	}
	return pts, nil
}

// wideReceive is a complex128 receiver (IEEE convention, default
// scrambler seed) kept as the oracle the complex64 production pipeline is
// compared against: the LTS channel estimate and per-symbol equalization
// run at full width with a complex division per point, followed by the
// same demap, deinterleave, depuncture, Viterbi (with the given kernels)
// and descramble stages production uses. TestWideOracleMatchesGolden pins
// its output.
func wideReceive(tb testing.TB, waveform []complex128, soft bool, acs acsPair) *RxResult {
	tb.Helper()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatalf("wide oracle: %v", err)
		}
	}
	if len(waveform) < PreambleLength+SymbolLength {
		tb.Fatalf("wide oracle: %d samples cannot hold preamble and SIGNAL", len(waveform))
	}

	var ch wideChannel
	ref, ltsf := ltsCached()
	freq := make([]complex128, NumSubcarriers)
	for rep := 0; rep < 2; rep++ {
		start := 160 + 32 + rep*NumSubcarriers
		must(dsp.FFTInto(freq, waveform[start:start+NumSubcarriers]))
		pts, err := ExtractSubcarriers(freq)
		must(err)
		for i := range ch.h {
			ch.h[i] += pts[i] / ref[i]
		}
		for i, k := range pilotSubcarriers {
			ch.hPilot[i] += freq[bin(k)] / ltsf[bin(k)]
		}
	}
	for i := range ch.h {
		ch.h[i] /= 2
	}
	for i := range ch.hPilot {
		ch.hPilot[i] /= 2
	}

	sig, err := ch.equalize(waveform[PreambleLength:PreambleLength+SymbolLength], 0)
	must(err)
	mode, length, err := DecodeSignalSymbol(sig)
	must(err)
	nSym := NumDataSymbols(mode, length)
	if need := PreambleLength + (1+nSym)*SymbolLength; len(waveform) < need {
		tb.Fatalf("wide oracle: waveform has %d samples, PPDU needs %d", len(waveform), need)
	}

	res := &RxResult{Mode: mode, PSDULength: length, DataPoints: make([][]complex128, nSym)}
	nCBPS := mode.CodedBitsPerSymbol()
	coded, symBits := make([]bits.Bit, nSym*nCBPS), make([]bits.Bit, nCBPS)
	llrs, symLLRs := make([]float64, nSym*nCBPS), make([]float64, nCBPS)
	for sym := range res.DataPoints {
		start := PreambleLength + (1+sym)*SymbolLength
		pts, err := ch.equalize(waveform[start:start+SymbolLength], sym+1)
		must(err)
		res.DataPoints[sym] = pts
		off := sym * nCBPS
		if soft {
			must(ConventionIEEE.SoftDemapAllInto(symLLRs, mode.Modulation, pts))
			must(ConventionIEEE.DeinterleaveFloatsInto(llrs[off:off+nCBPS], symLLRs, mode.Modulation))
		} else {
			must(ConventionIEEE.DemapAllCInto(symBits, mode.Modulation, pts))
			must(ConventionIEEE.DeinterleaveCInto(coded[off:off+nCBPS], symBits, mode.Modulation))
		}
	}

	var scrambled []bits.Bit
	if soft {
		mother, err := DepunctureFloats(llrs, mode.CodeRate)
		must(err)
		scrambled, err = viterbiDecodeSoftInto(nil, mother, false, acs.soft)
		must(err)
	} else {
		mother, erased, err := Depuncture(coded, mode.CodeRate)
		must(err)
		scrambled, err = viterbiDecodeInto(nil, mother, erased, false, acs.hard)
		must(err)
	}
	res.DataBits = make([]bits.Bit, len(scrambled))
	must(ScrambleWithSeedInto(res.DataBits, scrambled, DefaultScramblerSeed))
	res.PSDU, err = bits.ToBytes(res.DataBits[serviceBits : serviceBits+8*length])
	must(err)
	return res
}

// forEachParityCase generates the narrow-vs-wide comparison matrix: every
// transmittable mode, each impairment of narrowWideChannels, hard and
// soft. The inputs depend only on the fixed seed, so the golden digests
// below stay valid as long as this generator is unchanged.
func forEachParityCase(t *testing.T, fn func(desc string, ch []complex128, soft bool)) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	for _, mod := range []Modulation{BPSK, QPSK, QAM16, QAM64, QAM256} {
		for _, rate := range []CodeRate{Rate12, Rate23, Rate34, Rate56} {
			mode := Mode{mod, rate}
			if _, err := rateCode(mode); err != nil {
				continue
			}
			psdu := bits.RandomBytes(rng, 240)
			frame, err := Transmitter{Mode: mode}.Frame(psdu)
			if err != nil {
				t.Fatal(err)
			}
			wave, err := frame.Waveform()
			if err != nil {
				t.Fatal(err)
			}
			for name, ch := range narrowWideChannels(rng, wave) {
				for _, soft := range []bool{false, true} {
					fn(fmt.Sprintf("%v %s soft=%v", mode, name, soft), ch, soft)
				}
			}
		}
	}
}

// rxDigest is the FNV-64a hash of a result's Mode, PSDU and DataPoints
// (the float64 bits of every coordinate).
func rxDigest(res *RxResult) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(res.Mode.Modulation))
	put(uint64(res.Mode.CodeRate))
	h.Write(res.PSDU)
	for _, sym := range res.DataPoints {
		for _, p := range sym {
			put(math.Float64bits(real(p)))
			put(math.Float64bits(imag(p)))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestWideOracleMatchesGolden pins wideReceive to the complex128 receive
// pipeline it reproduces: testdata/wide_oracle.golden holds the rxDigest
// that pipeline produced for every case of the parity matrix. An oracle
// drifting from it would silently loosen every narrow-vs-wide tolerance.
func TestWideOracleMatchesGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "wide_oracle.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		digest, desc, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[desc] = digest
	}
	seen := 0
	forEachParityCase(t, func(desc string, ch []complex128, soft bool) {
		seen++
		w, ok := want[desc]
		if !ok {
			t.Fatalf("%s: no golden digest", desc)
		}
		if got := rxDigest(wideReceive(t, ch, soft, wordACS)); got != w {
			t.Errorf("%s: digest %s, golden %s", desc, got, w)
		}
	})
	if seen != len(want) {
		t.Fatalf("parity matrix has %d cases, golden file %d", seen, len(want))
	}
}
