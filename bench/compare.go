package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is every run of one side, by workload and metric.
type runSet struct {
	host   *fingerprint
	values map[string]map[string][]float64 // workload -> metric -> values
	units  map[string]string
}

// compareMain implements `bench compare <runsA> <runsB>`: each argument is
// a file or a directory of files holding captured run output (a header
// line followed by a result line, any number of times).
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <runsA> <runsB>")
		return 2
	}
	bounds, err := readBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sides [2]*runSet
	for i, path := range args {
		if sides[i], err = loadRuns(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	a, b := sides[0], sides[1]
	if !a.host.sameHost(*b.host) {
		fmt.Fprintf(os.Stderr, "bench compare: runs come from different hosts:\n  %+v\n  %+v\n", *a.host, *b.host)
		return 2
	}
	if gaps := unmatched(a, b); len(gaps) > 0 {
		for _, g := range gaps {
			fmt.Fprintln(os.Stderr, "bench compare:", g)
		}
		return 2
	}
	regressions := 0
	fmt.Fprintf(w, "%-16s %-30s %30s %30s %8s  %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "p", "verdict")
	for _, wl := range sortedKeys(a.values) {
		for _, name := range sortedKeys(a.values[wl]) {
			va, vb := a.values[wl][name], b.values[wl][name]
			bd, bounded := bounds[name]
			v := verdict(va, vb, bd, bounded)
			if v == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(w, "%-16s %-30s %30s %30s %8.3f  %s\n", wl, name+" ("+a.units[name]+")", spreadText(va), spreadText(vb), mannWhitneyP(va, vb), v)
		}
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

// unmatched lists every workload and metric that one side has and the
// other lacks, or that either side has fewer than two runs of: a side
// whose runs crashed on a workload must not drop it from the verdicts.
func unmatched(a, b *runSet) []string {
	var gaps []string
	for _, wl := range sortedKeys(union(a.values, b.values)) {
		for _, name := range sortedKeys(union(a.values[wl], b.values[wl])) {
			if na, nb := len(a.values[wl][name]), len(b.values[wl][name]); na < 2 || nb < 2 {
				gaps = append(gaps, fmt.Sprintf("%s %s: %d runs in A, %d in B; need at least 2 on each side", wl, name, na, nb))
			}
		}
	}
	return gaps
}

func union[V any](a, b map[string]V) map[string]bool {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	return keys
}

type bound struct {
	lowerBetter bool
	share       float64
}

// readBounds loads the end-to-end bounds from BENCHMARK.json in the
// working directory or its parent (for runs from inside bench/).
func readBounds() (map[string]bound, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]bound{}
	for _, m := range bf.EndToEnd {
		out[m.Name] = bound{lowerBetter: m.Better == "lower", share: m.Bound}
	}
	return out, nil
}

func loadRuns(path string) (*runSet, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if e.Type().IsRegular() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	rs := &runSet{values: map[string]map[string][]float64{}, units: map[string]string{}}
	for _, f := range files {
		if err := rs.read(f); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	if rs.host == nil {
		return nil, fmt.Errorf("%s: no runs found", path)
	}
	return rs, nil
}

// read collects every header/result pair in one file; the other lines
// (anything a run printed before its header) are skipped. A run that
// failed its checks makes the whole comparison invalid.
func (rs *runSet) read(file string) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var cur *header
	for sc.Scan() {
		var line struct {
			header
			Correct bool              `json:"correct"`
			Failed  int               `json:"failed"`
			Metrics map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch {
		case line.Workload != "":
			h := line.header
			cur = &h
			if rs.host == nil {
				rs.host = &h.Host
			} else if !rs.host.sameHost(h.Host) {
				return fmt.Errorf("mixes runs from different hosts")
			}
		case line.Metrics != nil && cur != nil:
			if !line.Correct || line.Failed > 0 {
				return fmt.Errorf("the %s run at seed %d failed its checks (%d failed) %q", cur.Workload, cur.Seed, line.Failed, cur.Failures)
			}
			all := map[string]metric{}
			for n, m := range cur.Extra {
				all[n] = m
			}
			for n, m := range line.Metrics {
				all[n] = m
			}
			wl := cur.Workload
			if cur.Trace {
				wl += "/traced"
			}
			if rs.values[wl] == nil {
				rs.values[wl] = map[string][]float64{}
			}
			for n, m := range all {
				rs.values[wl][n] = append(rs.values[wl][n], m.Value)
				rs.units[n] = m.Unit
			}
			cur = nil
		}
	}
	return sc.Err()
}

// verdict judges B against A. With a bound from BENCHMARK.json: a median
// worse by more than the bound is a REGRESSION, unless either side's own
// quartile spread exceeds the bound, which leaves it unresolved (but
// "better" when every B run beats every A run). A smaller move counts as
// better or worse only when it exceeds both spreads and p < 0.05. Without
// a bound the metric is informational.
func verdict(a, b []float64, bd bound, bounded bool) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / math.Abs(ma) // > 0: B is worse
	if !bd.lowerBetter {
		worse = -worse
	}
	if !bounded {
		if ma == 0 {
			return "(no bound)"
		}
		return fmt.Sprintf("%+.1f%% (no bound)", -worse*100)
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (bd.lowerBetter && y >= x) || (!bd.lowerBetter && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case spread(a) > bd.share || spread(b) > bd.share:
		if allBetter {
			return "better"
		}
		return "unresolved (spread > bound)"
	case worse > bd.share:
		return "REGRESSION"
	case math.Abs(worse) <= math.Max(spread(a), spread(b)) || mannWhitneyP(a, b) >= 0.05:
		return "same"
	case worse > 0:
		return "worse, within bound"
	}
	return "better"
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return (q[2] - q[0]) / math.Abs(median(xs))
}

func spreadText(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", median(xs), q[0], q[2], len(xs))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
