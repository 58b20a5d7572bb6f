// Command benchdiff compares two `go test -bench -benchmem` outputs and
// fails when allocations or bytes allocated per operation regress beyond a
// tolerance. It backs `make bench-compare`, which guards the hot paths
// (EncodeTo, AppendWaveform, the engine) against accidental allocation
// creep.
//
// Only allocs/op and B/op are gated: they follow the code, unlike ns/op,
// so a checked-in baseline stays meaningful on any hardware. allocs/op
// has no slack beyond the relative tolerance: go test prints it as a whole
// number, so a line carries no noise below one allocation. One extra copy
// of a large buffer is one allocation, inside a large count's tolerance;
// the bytes gate catches it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

// bytesSlack is the B/op increase always tolerated: above the largest
// same-code swing between runs at different -benchtime (12.6 kB), far
// below one copy of a rendered frame.
const bytesSlack = 16 << 10

// result is one parsed benchmark line.
type result struct {
	nsPerOp     float64
	allocsPerOp float64
	bytesPerOp  float64
	hasAllocs   bool
}

func main() {
	log.SetFlags(0)
	baselinePath := flag.String("baseline", "bench.baseline.txt", "checked-in baseline benchmark output")
	currentPath := flag.String("current", "bench.current.txt", "fresh benchmark output to compare")
	relTol := flag.Float64("rel", 0.10, "relative allocs/op and B/op increase tolerated")
	flag.Parse()

	base, err := parseFile(*baselinePath)
	if err != nil {
		log.Fatalf("baseline: %v", err)
	}
	cur, err := parseFile(*currentPath)
	if err != nil {
		log.Fatalf("current: %v", err)
	}
	if len(base) == 0 {
		log.Fatalf("baseline %s holds no benchmark lines", *baselinePath)
	}

	if !compare(os.Stdout, base, cur, *relTol) {
		fmt.Println("\nallocation regression detected — if intentional, refresh the baseline with `make bench-baseline`")
		os.Exit(1)
	}
}

// compare prints one line per benchmark and reports whether every
// baseline line is in cur with allocs/op ≤ base·(1+rel) and B/op ≤
// base·(1+rel)+bytesSlack.
func compare(w io.Writer, base, cur map[string]result, rel float64) bool {
	ok := true
	for name, b := range base {
		c, found := cur[name]
		if !found {
			fmt.Fprintf(w, "MISSING  %-40s (in baseline, not in current run)\n", name)
			ok = false
			continue
		}
		if !b.hasAllocs || !c.hasAllocs {
			continue
		}
		status := "ok"
		if c.allocsPerOp > b.allocsPerOp*(1+rel) || c.bytesPerOp > b.bytesPerOp*(1+rel)+bytesSlack {
			status = "REGRESSED"
			ok = false
		}
		fmt.Fprintf(w, "%-9s %-40s allocs/op %8.0f -> %8.0f   B/op %10.0f -> %10.0f   ns/op %10.0f -> %10.0f\n",
			status, name, b.allocsPerOp, c.allocsPerOp, b.bytesPerOp, c.bytesPerOp, b.nsPerOp, c.nsPerOp)
	}
	for name := range cur {
		if _, found := base[name]; !found {
			fmt.Fprintf(w, "new       %-40s (not in baseline; add it with `make bench-baseline`)\n", name)
		}
	}
	return ok
}

// parseFile extracts Benchmark lines from `go test -bench -benchmem`
// output, keyed by name with the -<GOMAXPROCS> suffix stripped.
func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]result{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var r result
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.nsPerOp = v
			case "B/op":
				r.bytesPerOp = v
			case "allocs/op":
				r.allocsPerOp = v
				r.hasAllocs = true
			}
		}
		out[name] = r
	}
	return out, sc.Err()
}
