package tensor

// gemmQuadAVX2 is the four-row pass of gemmRowsAB over n4 columns (a
// positive multiple of 4) and the first 2·k2 steps of l (k2 ≥ 1). c
// points at C[i][j0] with row stride ldc, a at the logical A[i][0] with
// row stride ars and l stride als, and b at B[0][j0] with row stride
// ldb; every stride counts elements. The caller has bounds-checked every
// element it reaches.
//
//go:noescape
func gemmQuadAVX2(c *float64, ldc int, a *float64, ars, als int, b *float64, ldb, n4, k2 int)
