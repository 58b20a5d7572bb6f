//go:build !race

package wifi

const raceEnabled = false
