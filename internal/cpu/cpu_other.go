//go:build !amd64

package cpu

// AVX2 is false off amd64: there is no AVX2 kernel to run.
const AVX2 = false
