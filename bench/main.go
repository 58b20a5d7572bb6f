// Command bench is the repository's workload benchmark: four workloads
// that drive the SledZig pipeline through its public API (end-to-end
// metrics, untraced) plus a traced run that times each layer of the same
// work (per-layer metrics). See README.md for the workloads, the metrics
// and how to compare two commits.
//
//	bench --workload tx-mix --seed 1 --seconds 20 --trace 0
//	bench compare <runsA> <runsB>
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workload names, in BENCHMARK.json order.
const (
	wTx      = "tx-mix"
	wRx      = "rx-gateway"
	wCodec   = "codec-roundtrip"
	wCoexist = "coexist-sweep"
)

var workloadNames = []string{wTx, wRx, wCodec, wCoexist}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	maxOps    int // 0: no limit besides seconds
	setupOnly bool
}

// opLimit is how many ops a pass over a pool of n may run.
func (o options) opLimit(n int) int {
	if o.maxOps > 0 {
		return min(n, o.maxOps)
	}
	return n
}

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// metric is one named number with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header is the line before the result: what ran, where, and the
// workload-specific numbers that are not result-line metrics.
type header struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Seconds  float64           `json:"seconds"`
	Host     fingerprint       `json:"host"`
	Extra    map[string]metric `json:"extra,omitempty"`
	Failures []string          `json:"failures,omitempty"`
}

// report is what a workload run or a traced run hands back for printing.
type report struct {
	metrics           map[string]metric
	extra             map[string]metric
	attempted, failed int
	failures          []string
}

// fail records one failed op or check; the first few messages are kept.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed (develop on 1, confirm claims on 2)")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end loop")
	fs.IntVar(&o.maxOps, "ops", 0, "stop after this many ops even if time remains, and time one set-up (0: no limit)")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "run one cold set-up of the workload and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if !slices.Contains(workloadNames, o.workload) || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "bench: need --workload one of %v, --trace 0|1, --seconds > 0\n", workloadNames)
		return 2
	}
	if o.setupOnly {
		cal := calibrate()
		t0 := time.Now()
		if err := coldSetup(o.workload, o.seed); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, time.Since(t0).Seconds(), cal.Seconds())
		return 0
	}

	var rep *report
	var err error
	if o.trace {
		rep, err = runLedger(o)
	} else {
		rep, err = runWorkload(o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	h := header{Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Host: hostFingerprint(), Extra: rep.extra, Failures: rep.failures}
	res := result{Correct: rep.failed == 0, Attempted: max(rep.attempted, 1), Failed: min(rep.failed, max(rep.attempted, 1)), Metrics: rep.metrics}
	printSummary(stderr, h, res)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(h); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(o options) (*report, error) {
	setup, cal, err := measureSetup(o)
	if err != nil {
		return nil, err
	}
	var rep *report
	switch o.workload {
	case wTx:
		rep, err = runTx(o)
	case wRx:
		rep, err = runRx(o)
	case wCodec:
		rep, err = runCodec(o)
	case wCoexist:
		rep, err = runCoexist(o)
	}
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = metric{setup, "s"}
	// The host's speed during the set-ups, for reading the wall-time
	// numbers under extra.
	rep.extra["calibration_ms"] = metric{cal * 1e3, "ms"}
	return rep, nil
}

// setupRuns is how many cold set-ups setup_s is the median of: enough
// that a few set-ups slowed by the host do not move the median.
const setupRuns = 21

// measureSetup runs setupRuns fresh copies of this program (one under
// --ops, which only smoke runs set), pinned to each processor in turn.
// Each times the calibration kernel, then one cold set-up, and exits; a
// fresh process per sample keeps the process-wide plan and layout caches
// cold. It returns setup_s, the median of set-up time ÷ calibration time
// scaled by referenceCalibration, and the median calibration time.
func measureSetup(o options) (setup, cal float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, fmt.Errorf("locating own binary for set-up runs: %w", err)
	}
	runs := setupRuns
	if o.maxOps > 0 {
		runs = 1
	}
	var shares, cals []float64
	for i := range runs {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--setup-only", "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10))
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := runPinned(cmd, i); err != nil {
			return 0, 0, fmt.Errorf("set-up run: %w", err)
		}
		var s, c float64
		if _, err := fmt.Sscan(out.String(), &s, &c); err != nil || c <= 0 {
			return 0, 0, fmt.Errorf("set-up run printed %q, want set-up and calibration seconds", out.String())
		}
		shares = append(shares, s/c)
		cals = append(cals, c)
	}
	return median(shares) * referenceCalibration, median(cals), nil
}

// coldSetup builds the workload's system and runs the first op of every
// mode or codec on fixed-size inputs.
func coldSetup(workload string, seed int64) error {
	switch workload {
	case wTx:
		return setupTx(seed)
	case wRx:
		return setupRx(seed)
	case wCodec:
		return setupCodec(seed)
	case wCoexist:
		return setupCoexist(seed)
	}
	return errors.New("unknown workload " + workload)
}

// printSummary writes a human-readable table of the run to w.
func printSummary(w io.Writer, h header, res result) {
	kind := "end-to-end"
	if h.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s seed=%d %s (%s, GOMAXPROCS=%d, %s)\n", h.Workload, h.Seed, kind, h.Host.CPUModel, h.Host.GOMAXPROCS, h.Host.GoVersion)
	table := func(ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	table(res.Metrics)
	table(h.Extra)
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, f := range h.Failures {
		fmt.Fprintln(w, "  failure:", f)
	}
}
