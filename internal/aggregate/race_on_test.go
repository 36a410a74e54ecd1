//go:build race

package aggregate

// raceEnabled reports whether the race detector is compiled in. See
// race_off_test.go.
const raceEnabled = true
