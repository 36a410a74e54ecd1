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

// SetSparseTileMin sets the entries per member from which an
// all-sparse tile takes the tile arm, for every tile kernel — 0 sends
// every tile there, more than payloadGatherTile none — and returns the
// function that restores the previous gate.
func SetSparseTileMin(perMember int) (restore func()) {
	saved := sparseTileMin
	sparseTileMin.vec, sparseTileMin.network = perMember, perMember
	for n := range sparseTileMin.weighted {
		sparseTileMin.weighted[n] = perMember
	}
	return func() { sparseTileMin = saved }
}
