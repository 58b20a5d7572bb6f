//go:build race

package sledzig

// raceEnabled reports whether the race detector instruments this build.
// Under -race sync.Pool drops a share of its Puts, so allocation pins on
// pooled paths are meaningless there and are skipped.
const raceEnabled = true
