package wifi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sledzig/internal/bits"
)

// Golden frame: pins the entire transmit chain (scrambler, coder,
// interleaver, mapper) for one reference frame per convention, so any
// refactor that changes a single transmitted bit is caught. Regenerate
// with UPDATE_GOLDEN=1.
type goldenFrame struct {
	Convention string   `json:"convention"`
	Mode       string   `json:"mode"`
	PSDUHash   string   `json:"psduSeed"`
	Scrambled  string   `json:"scrambledBits"` // first 256 bits
	FirstSym   []string `json:"firstSymbolPoints"`
}

func TestGoldenFrame(t *testing.T) {
	var got []goldenFrame
	for _, conv := range []Convention{ConventionIEEE, ConventionPaper} {
		psdu := bits.RandomBytes(rand.New(rand.NewSource(99)), 120)
		frame, err := Transmitter{Mode: Mode{QAM64, Rate34}, Convention: conv}.Frame(psdu)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := frame.DataPoints()
		if err != nil {
			t.Fatal(err)
		}
		g := goldenFrame{
			Convention: conv.String(),
			Mode:       frame.Mode.String(),
			PSDUHash:   "seed99/120B",
			Scrambled:  bits.String(frame.ScrambledBits()[:256]),
		}
		for _, p := range pts[0][:12] {
			g.FirstSym = append(g.FirstSym, fmt.Sprintf("%+.4f%+.4fi", real(p), imag(p)))
		}
		got = append(got, g)
	}
	encoded, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	encoded = append(encoded, '\n')
	path := filepath.Join("testdata", "golden_frame.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, encoded, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(encoded, want) {
		t.Fatalf("transmit chain output diverges from %s", path)
	}
}
