package tensor

// haveAVX2 is the CPU's answer, read once at init: CPUID leaf 1 reports
// AVX and OSXSAVE, XGETBV that the OS saves the XMM and YMM state, and
// leaf 7 (EBX bit 5) AVX2.
var haveAVX2 = cpuAVX2()

func cpuAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMM = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYMM != xmmYMM {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gemmQuadAVX2 is the four-row pass of gemmRowsAB over n4 columns (a
// positive multiple of 4) and the first 2·k2 steps of l (k2 ≥ 1). c
// points at C[i][j0] with row stride ldc, a at the logical A[i][0] with
// row stride ars and l stride als, and b at B[0][j0] with row stride
// ldb; every stride counts elements. The caller has bounds-checked every
// element it reaches.
//
//go:noescape
func gemmQuadAVX2(c *float64, ldc int, a *float64, ars, als int, b *float64, ldb, n4, k2 int)
