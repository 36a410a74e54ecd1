package aggregate

import "fedms/internal/cpu"

// SetTileAVX2 reaches the tile kernel switch from the external test
// package: it turns the AVX2 tile kernel on or off and returns the
// function that restores the previous setting.
func SetTileAVX2(on bool) (restore func()) {
	saved := tileAVX2
	tileAVX2 = on && cpu.AVX2
	return func() { tileAVX2 = saved }
}
