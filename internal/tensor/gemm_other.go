//go:build !amd64

package tensor

func gemmQuadAVX2(c *float64, ldc int, a *float64, ars, als int, b *float64, ldb, n4, k2 int) {
	panic("tensor: no AVX2 kernel on this architecture")
}
