package sledzig_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sledzig"
	"sledzig/internal/channel"
	"sledzig/internal/wifi"
)

// goldenModes are the three WiFi modes of the bench/ workloads, one per
// QAM order, each protecting a different ZigBee channel.
var goldenModes = []sledzig.Config{
	{Modulation: sledzig.QAM16, CodeRate: sledzig.Rate12, Channel: sledzig.CH4},
	{Modulation: sledzig.QAM64, CodeRate: sledzig.Rate34, Channel: sledzig.CH2},
	{Modulation: sledzig.QAM256, CodeRate: sledzig.Rate34, Channel: sledzig.CH3},
}

// goldenSizes spans both payload classes: a few symbols and a long frame.
var goldenSizes = []int{64, 1200}

// goldenSNRDB is the full-band SNR of the noisy captures, the bench/
// workloads' operating point.
const goldenSNRDB = 38

// decodeResultFields is the number of DecodeResult fields resultDigest
// hashes; a new field must join the digest before the count is raised.
const decodeResultFields = 9

// resultDigest is the FNV-64a hash of every DecodeResult field (SymbolEVM
// as float64 bits), or of the error text when the decode failed.
func resultDigest(res *sledzig.DecodeResult, err error) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	if err != nil {
		h.Write([]byte("error: " + err.Error()))
		return fmt.Sprintf("%016x", h.Sum64())
	}
	put(uint64(len(res.Payload)))
	h.Write(res.Payload)
	put(uint64(res.Channel))
	put(uint64(len(res.Codec)))
	h.Write([]byte(res.Codec))
	put(uint64(res.Modulation))
	put(uint64(res.CodeRate))
	put(uint64(res.ScramblerSeed))
	put(uint64(res.ExtraBits))
	put(uint64(res.NumSymbols))
	put(uint64(len(res.SymbolEVM)))
	for _, v := range res.SymbolEVM {
		put(math.Float64bits(v))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// seedOf derives an input's RNG seed from its description, so adding a
// codec or a mode never reseeds the other inputs.
func seedOf(desc string) int64 {
	h := fnv.New64a()
	h.Write([]byte(desc))
	return int64(h.Sum64() >> 1)
}

// decodeGoldenDigests decodes every registered codec's frames in the three
// bench/ modes, at two payload sizes, clean and through a seeded AWGN
// link, three ways: the codec's own Decoder, Engine.DecodeBatch, and a
// default SledZig Decoder (which fails on the other codecs' frames, so
// their error text is pinned too). It returns "digest description" lines.
func decodeGoldenDigests(t *testing.T) []string {
	t.Helper()
	fallback, err := sledzig.NewDecoder(sledzig.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, name := range sledzig.Codecs() {
		for _, cfg := range goldenModes {
			cfg.Codec = name
			if name == sledzig.CodecOOK {
				// The 320-symbol OOK message fits only modes of at most 102
				// data bits per symbol: QAM-16 r1/2 on each mode's channel.
				cfg.Modulation, cfg.CodeRate = sledzig.QAM16, sledzig.Rate12
			}
			enc, err := sledzig.NewEncoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := sledzig.NewDecoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var descs []string
			var waves [][]complex128
			for _, size := range goldenSizes {
				for _, noisy := range []bool{false, true} {
					cond := "clean"
					if noisy {
						cond = fmt.Sprintf("awgn%ddB", goldenSNRDB)
					}
					desc := fmt.Sprintf("%s %v r=%v %v %dB %s", name, cfg.Modulation, cfg.CodeRate, cfg.Channel, size, cond)
					rng := rand.New(rand.NewSource(seedOf(desc)))
					payload := make([]byte, size)
					rng.Read(payload)
					frame, err := enc.Encode(payload)
					if err != nil {
						t.Fatalf("%s: Encode: %v", desc, err)
					}
					wave, err := frame.Waveform()
					if err != nil {
						t.Fatalf("%s: Waveform: %v", desc, err)
					}
					if noisy {
						l := channel.Link{RxPowerDBm: channel.NoisePowerDBm(wifi.SampleRate) + goldenSNRDB, Rng: rng}
						wave, _ = l.Apply(wave)
						if err := l.AddNoise(wave); err != nil {
							t.Fatal(err)
						}
					}
					descs = append(descs, desc)
					waves = append(waves, wave)
				}
			}
			eng, err := sledzig.NewEngine(sledzig.EngineConfig{Config: cfg, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			batch, err := eng.DecodeBatch(context.Background(), waves)
			eng.Close()
			if err != nil {
				t.Fatalf("%s %v: DecodeBatch: %v", name, cfg.Channel, err)
			}
			for i, w := range waves {
				res, err := dec.Decode(w)
				if err != nil {
					t.Fatalf("%s: Decode: %v", descs[i], err)
				}
				own, pooled := resultDigest(res, nil), resultDigest(batch[i], nil)
				if own != pooled {
					t.Errorf("%s: Decoder digest %s, Engine digest %s", descs[i], own, pooled)
				}
				res, err = fallback.Decode(w)
				lines = append(lines,
					own+" "+descs[i]+" decoder",
					pooled+" "+descs[i]+" engine",
					resultDigest(res, err)+" "+descs[i]+" default-sledzig")
			}
		}
	}
	return lines
}

// TestDecodeResultsMatchGolden pins every field of every decode path's
// results: testdata/decode_results.golden holds the digests recorded
// before the facade and the engine decoded SledZig through the codec
// registry. Set UPDATE_GOLDEN=1 to rewrite it after an intentional
// change to decode results.
func TestDecodeResultsMatchGolden(t *testing.T) {
	if n := reflect.TypeOf(sledzig.DecodeResult{}).NumField(); n != decodeResultFields {
		t.Fatalf("DecodeResult has %d fields; resultDigest hashes %d", n, decodeResultFields)
	}
	path := filepath.Join("testdata", "decode_results.golden")
	lines := decodeGoldenDigests(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		header := "# resultDigest of every decode path's result (decodeGoldenDigests).\n"
		if err := os.WriteFile(path, []byte(header+strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
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
	for _, line := range lines {
		digest, desc, _ := strings.Cut(line, " ")
		w, ok := want[desc]
		if !ok {
			t.Errorf("%s: no golden digest", desc)
			continue
		}
		if digest != w {
			t.Errorf("%s: digest %s, golden %s", desc, digest, w)
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("decoded %d results, golden file holds %d", len(lines), len(want))
	}
}
