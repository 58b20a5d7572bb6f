package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sledzig/internal/wifi"
)

// The golden file pins the derived tables (significant-bit positions and
// extra-bit positions for every paper mode/channel combination, both
// conventions) so refactors cannot silently move them. It doubles as an
// interop vector set for other implementations. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/core -run TestGoldenVectors
func updateGolden() bool { return os.Getenv("UPDATE_GOLDEN") != "" }

type goldenEntry struct {
	Convention string `json:"convention"`
	Mode       string `json:"mode"`
	Channel    string `json:"channel"`
	// Positions are 1-based mother-stream significant-bit positions of
	// the first OFDM symbol (the paper's Table II numbering).
	Positions []int `json:"positions"`
	// ExtraBits are 0-based encoder-input indices of the extra bits of
	// the first OFDM symbol.
	ExtraBits []int `json:"extraBits"`
}

func computeGolden(t *testing.T) []goldenEntry {
	t.Helper()
	var out []goldenEntry
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		for _, mode := range wifi.PaperModes() {
			for _, ch := range AllChannels() {
				plan, err := NewPlan(conv, mode, ch)
				if err != nil {
					t.Fatalf("%v %v %v: %v", conv, mode, ch, err)
				}
				layout, err := plan.FrameLayout(1)
				if err != nil {
					t.Fatal(err)
				}
				entry := goldenEntry{
					Convention: conv.String(),
					Mode:       mode.String(),
					Channel:    ch.String(),
					ExtraBits:  layout.Positions,
				}
				for _, c := range plan.symbolConstraints {
					entry.Positions = append(entry.Positions, c.PaperPosition())
				}
				out = append(out, entry)
			}
		}
	}
	return out
}

func TestGoldenVectors(t *testing.T) {
	path := filepath.Join("testdata", "vectors.json")
	got := computeGolden(t)
	encoded, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	encoded = append(encoded, '\n')
	if updateGolden() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, encoded, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(encoded, want) {
		t.Fatalf("derived tables diverge from %s — positions moved; if intentional, regenerate with -update", path)
	}
}
