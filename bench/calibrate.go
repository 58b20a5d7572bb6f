package main

import "time"

// The 2-vCPU VM this benchmark was tuned on changes speed by up to 2x
// over minutes (load on the cores it shares), and its two processors can
// differ in speed at the same moment. Set-up wall time, its CPU time and
// any fixed piece of code slow down together, as long as they run on the
// same processor. So each set-up process is pinned to one processor
// (runPinned) and times calibrate just before its set-up; setup_s is the
// set-up time over the calibration time, scaled back to seconds with
// calibrate's time on that VM.
//
// Measured over 10 minutes of pinned set-ups in groups of 11, the slowest
// quarter of host states raised the raw set-up medians by 23-31% over the
// fastest quarter, and the ratio by 1-7%. Unpinned, coexist-sweep's ratio
// rose 25%. Of seven candidate kernels (a DFT, random table access, small
// allocations, pointer chasing over 4 MiB, sorting, map updates, binary
// trees), table access plus binary trees tracked all four workloads'
// set-ups about as well as any mix, and better than compute-bound code.

// referenceCalibration is calibrate's median time over 4,928 pinned runs
// on the reference VM (Intel Xeon, 2 vCPUs, go1.24) in a 10-minute window;
// under heavier load it measured 25 ms.
const referenceCalibration = 16.5e-3 // s

// calibration sinks keep the compiler from removing the kernel's work.
var (
	calSum  uint64
	calKeep []*calNode
)

type calNode struct {
	l, r *calNode
	v    int
}

func calTree(depth int) *calNode {
	if depth == 0 {
		return &calNode{}
	}
	return &calNode{l: calTree(depth - 1), r: calTree(depth - 1), v: depth}
}

// calibrate runs a fixed mix of the kinds of work set-up does and returns
// how long it took: random reads and writes over a fresh 2 MiB table, then
// building 40 binary trees of 8191 nodes and keeping every eighth, which
// makes the garbage collector run.
func calibrate() time.Duration {
	t0 := time.Now()

	const tableLen = 1 << 18
	table := make([]uint64, tableLen)
	x, sum := uint64(88172645463325252), uint64(0)
	for range 400000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (tableLen - 1)
		table[j] += x
		sum += table[(j*31)&(tableLen-1)]
	}
	calSum = sum

	var keep []*calNode
	for i := range 40 {
		t := calTree(12)
		if i%8 == 0 {
			keep = append(keep, t)
		}
	}
	calKeep = keep

	return time.Since(t0)
}
