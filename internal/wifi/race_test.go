//go:build race

package wifi

// raceEnabled reports whether the race detector instruments this build.
// Under -race sync.Pool drops a share of its Puts, so the allocation pin
// of the standalone Viterbi decoders, which recycle viterbiPool, is
// skipped there; every other pin in the package holds under -race.
const raceEnabled = true
