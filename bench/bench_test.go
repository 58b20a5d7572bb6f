package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// TestMain lets set-up runs re-execute the test binary as the benchmark.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "--setup-only") {
		os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smokeOps runs each workload at about 1% of a full run's op count.
var smokeOps = map[string]int{wTx: 300, wRx: 40, wCodec: 30, wCoexist: 20}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// run executes one benchmark run in-process and returns its two output lines.
func run(t *testing.T, args ...string) (header, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := runMain(append([]string{"--seconds", "30"}, args...), &out, &errOut)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if code != 0 || len(lines) != 2 {
		t.Fatalf("%v: exit %d, output:\n%s\n%s", args, code, out.Bytes(), errOut.Bytes())
	}
	var h header
	var r result
	if err := json.Unmarshal(lines[0], &h); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%v: correct=%v attempted=%d failed=%d %v", args, r.Correct, r.Attempted, r.Failed, h.Failures)
	}
	return h, r
}

// checkMetrics holds a run's metrics to the names and units BENCHMARK.json
// declares, all present, no others, all finite.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: %s in %q, declared %q", what, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, w.Name, m.Value)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloadNames {
		args := []string{"--workload", w, "--seed", "3", "--ops", strconv.Itoa(smokeOps[w])}
		h1, r1 := run(t, args...)
		checkMetrics(t, w, r1.Metrics, d.EndToEnd)
		for _, name := range []string{"frames_per_s", "sim_s_per_wall_s", "latency_p50_us", "latency_p99_us", "protected_drop_db", "calibration_ms"} {
			if m, ok := h1.Extra[name]; !ok || m.Value <= 0 {
				t.Errorf("%s: extra %s = %v, %v", w, name, m, ok)
			}
		}
		// Quality numbers depend on the seed alone.
		h2, _ := run(t, args...)
		for _, name := range []string{"protected_drop_db", "evm_db", "zigbee_kbps"} {
			if m, ok := h1.Extra[name]; ok && h2.Extra[name] != m {
				t.Errorf("%s: %s %v then %v at the same seed", w, name, m, h2.Extra[name])
			}
		}
	}
}

// The traced run measures every layer, and its layer calls must reproduce
// the facade's waveforms and payloads (a mismatch fails the run).
func TestTracedSmoke(t *testing.T) {
	_, r := run(t, "--workload", wRx, "--trace", "1", "--ops", "6")
	checkMetrics(t, "traced", r.Metrics, readDeclared(t).PerLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestMannWhitney(t *testing.T) {
	// Fully separated samples of 3: one arrangement in 20 each way.
	if p := mannWhitneyP([]float64{1, 2, 3}, []float64{4, 5, 6}); math.Abs(p-0.1) > 1e-12 {
		t.Errorf("separated p = %v, want 0.1", p)
	}
	if p := mannWhitneyP([]float64{1, 4, 5}, []float64{2, 3, 6}); p < 0.5 {
		t.Errorf("interleaved p = %v, want large", p)
	}
}

func TestCompareRefuses(t *testing.T) {
	dir := t.TempDir()
	// write stores three runs of each workload on host fp; with failing
	// set, the last run of each failed a check.
	write := func(name string, fp fingerprint, failing bool, workloads ...string) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for _, w := range workloads {
			for i := range 3 {
				failed := 0
				if failing && i == 2 {
					failed = 1
				}
				_ = enc.Encode(header{Workload: w, Seed: int64(i), Host: fp})
				_ = enc.Encode(result{Correct: failed == 0, Attempted: 1, Failed: failed, Metrics: map[string]metric{"allocs_per_op": {100 + float64(i), "count"}}})
			}
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	here := hostFingerprint()
	other := here
	other.CPUModel += " (other)"
	a := write("a", here, false, wTx, wRx)
	for _, c := range []struct {
		what string
		b    string
		want int
	}{
		{"same host", write("b", here, false, wTx, wRx), 0},
		{"different hosts", write("c", other, false, wTx, wRx), 2},
		{"a failed run", write("d", here, true, wTx, wRx), 2},
		{"a workload missing", write("e", here, false, wTx), 2},
	} {
		if code := compareMain([]string{a, c.b}, &bytes.Buffer{}); code != c.want {
			t.Errorf("%s: exit %d, want %d", c.what, code, c.want)
		}
	}
}
