//go:build !race

package nn

// raceEnabled reports whether the race detector is compiled in. The
// allocation gates skip under -race: the race runtime's shadow
// allocations make testing.AllocsPerRun meaningless, so `make verify`
// pins them in a dedicated no-race stage instead.
const raceEnabled = false
