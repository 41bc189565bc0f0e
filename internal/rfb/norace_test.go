//go:build !race

package rfb

// raceEnabled reports a race-detector build (race_test.go).
const raceEnabled = false
