//go:build !amd64

package aggregate

func trimTileAVX2(out *float64, rows *[tileVecMaxN]*float64, n, m, lanes int, div float64) {
	panic("aggregate: no AVX2 kernel on this architecture")
}

func trimTileWeightedAVX2(out *float64, rows *[tileVecMaxN]*float64, weights *float64, n, m, lanes int) {
	panic("aggregate: no AVX2 kernel on this architecture")
}
