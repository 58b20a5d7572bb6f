package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

const baselineOut = `goos: linux
pkg: sledzig
BenchmarkCodecEncode-2   	     400	   1567520 ns/op	   0.26 MB/s	  420000 B/op	       5 allocs/op
BenchmarkSmall           	     400	       100 ns/op	       0 B/op	       0 allocs/op
PASS
`

func mustParse(t *testing.T, out string) map[string]result {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseReadsBytesAndAllocs(t *testing.T) {
	m := mustParse(t, baselineOut)
	r, ok := m["BenchmarkCodecEncode"]
	if !ok {
		t.Fatalf("suffix not stripped: %v", m)
	}
	if r.bytesPerOp != 420000 || r.allocsPerOp != 5 || r.nsPerOp != 1567520 || !r.hasAllocs {
		t.Fatalf("parsed %+v", r)
	}
}

// TestCompareGates holds each gate at its edge: allocs/op may rise by
// rel, B/op by rel plus bytesSlack, and one step past either edge
// regresses. On a small count one whole allocation is past the edge.
func TestCompareGates(t *testing.T) {
	base := mustParse(t, baselineOut)
	cases := []struct {
		name          string
		bytes, allocs float64
		want          bool
	}{
		{"unchanged", 420000, 5, true},
		{"allocs at the edge", 420000, 5 * 1.1, true},
		{"allocs past the edge", 420000, 6, false},
		{"bytes at the edge", 420000*1.1 + bytesSlack, 5, true},
		{"bytes past the edge", 420000*1.1 + bytesSlack + 1, 5, false},
		// One extra copy of a rendered frame: a single allocation, which
		// fails a small count's gate as well as the bytes gate.
		{"one extra copy", 840000, 6, false},
	}
	for _, tc := range cases {
		cur := map[string]result{
			"BenchmarkCodecEncode": {bytesPerOp: tc.bytes, allocsPerOp: tc.allocs, hasAllocs: true},
			"BenchmarkSmall":       base["BenchmarkSmall"],
		}
		if got := compare(io.Discard, base, cur, 0.10); got != tc.want {
			t.Errorf("%s: compare = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCompareSmallBytesSlack(t *testing.T) {
	base := mustParse(t, baselineOut)
	cur := mustParse(t, baselineOut)
	small := cur["BenchmarkSmall"]
	small.bytesPerOp = bytesSlack
	cur["BenchmarkSmall"] = small
	if !compare(io.Discard, base, cur, 0.10) {
		t.Fatal("a zero-byte baseline failed within the fixed slack")
	}
	small.bytesPerOp = bytesSlack + 1
	cur["BenchmarkSmall"] = small
	if compare(io.Discard, base, cur, 0.10) {
		t.Fatal("a zero-byte baseline passed beyond the fixed slack")
	}
}

func TestCompareMissingFails(t *testing.T) {
	base := mustParse(t, baselineOut)
	cur := mustParse(t, baselineOut)
	delete(cur, "BenchmarkSmall")
	if compare(io.Discard, base, cur, 0.10) {
		t.Fatal("a benchmark missing from the current run passed")
	}
}
