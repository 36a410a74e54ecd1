//go:build !race

package theory

// raceEnabled reports whether the race detector is compiled in. The
// allocation gate skips under -race: the race runtime's shadow
// allocations make testing.AllocsPerRun meaningless, so `make verify`
// pins it in a dedicated no-race stage instead.
const raceEnabled = false
