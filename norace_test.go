//go:build !race

package sledzig

const raceEnabled = false
