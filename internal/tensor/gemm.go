package tensor

// Blocked, worker-parallel GEMM over row-major float64 buffers — the
// kernel under every Dense and Conv2D layer, and therefore under each
// client's E local SGD steps per Fed-MS round.
//
// Determinism contract: every output element accumulates its k products
// a_il·b_lj in ascending-l order, starting from 0 (Gemm) or from the
// existing C value (the Acc variants). That matches the textbook ikj
// reference element for element, so results are bit-identical to the
// naive loops — and identical for any worker count, since workers only
// repartition whole C rows and each element's sum is self-contained.
// The contract rules out K-blocking (splitting the k loop would
// re-associate each element's sum), so the kernel blocks over M and N
// only and always runs the full k dimension per output element.
//
// Kernel shape: packed register-tiled micro-kernels were tried first and
// lost — a 4×4 float64 tile needs 16 accumulators plus operand
// temporaries and spills amd64's 16 floating-point registers every
// iteration, and even a fitting 2×4 tile pays packing traffic for a
// ~1.4× win. The shipped kernels instead stream C through memory:
//
//   - NN/TA: four C rows are updated per pass, two k steps at a time.
//     For each l pair the eight A values sit in registers while two B
//     rows stream through, and each C element is loaded once, updated by
//     two sequential adds (two statements — a single fused expression
//     would re-associate the sum), and stored once. N is chunked by
//     gemmNC so the four active C row segments stay L1-resident for the
//     whole k loop.
//   - TB: logical B columns are stored rows of b, so C elements are
//     plain dot products over contiguous memory; a 2×2 tile of dots
//     shares the four operand loads across four accumulators.
//
// The old naive kernel skipped a_il == 0 terms; this one does not. For
// finite inputs the results are still bit-identical: an accumulator that
// holds +0 stays +0 under added ±0 products (x + y is -0 only when both
// operands are -0 in round-to-nearest), and adding ±0 to a non-zero
// value is exact. Only non-finite inputs (0·Inf = NaN) could diverge,
// and no layer produces those.

import "fedms/internal/par"

const (
	// gemmNC is the number of C columns a row pass updates per chunk.
	// Four rows of gemmNC float64s are 16 KB — half a typical L1d — so
	// the accumulator rows stay cache-resident across the full k loop
	// while one B row streams through per l.
	gemmNC = 512

	// gemmParallelVolume is the minimum m·n·k volume before the row loop
	// fans out to goroutines; below it the handoff costs more than the
	// arithmetic. The path choice is a pure function of the shape and
	// worker count, and every partition is bit-identical anyway.
	gemmParallelVolume = 1 << 16

	// gemmRowQuad is the row-partition granularity for workers: chunks
	// are multiples of four rows so every worker runs full quad passes.
	gemmRowQuad = 4
)

// gemmOp selects which operand is logically transposed. Operands are
// always stored row-major; the transposed variants read the same buffer
// with swapped strides, so no transpose copy is ever materialized.
type gemmOp int

const (
	opNN gemmOp = iota // C = A·B,   a is [m×k], b is [k×n]
	opTA               // C = Aᵀ·B,  a is [k×m], b is [k×n]
	opTB               // C = A·Bᵀ,  a is [m×k], b is [n×k]
)

// Gemm computes C = A·B for row-major flat buffers with A [m×k], B [k×n],
// C [m×n], on the calling goroutine.
func Gemm(c, a, b []float64, m, n, k int) {
	gemmDispatch(c, a, b, m, n, k, opNN, false, 1)
}

// GemmWorkers is Gemm with the row loop spread over up to workers
// goroutines. Output is bit-identical to Gemm for any worker count.
func GemmWorkers(c, a, b []float64, m, n, k, workers int) {
	gemmDispatch(c, a, b, m, n, k, opNN, false, workers)
}

// GemmTA computes C = Aᵀ·B where a is stored row-major [k×m] (so the
// logical A is [m×k]) and b is [k×n]. This is the dW-shaped product of
// the backward passes, without materializing the transpose.
func GemmTA(c, a, b []float64, m, n, k, workers int) {
	gemmDispatch(c, a, b, m, n, k, opTA, false, workers)
}

// GemmTAAcc computes C += Aᵀ·B with a stored [k×m].
func GemmTAAcc(c, a, b []float64, m, n, k, workers int) {
	gemmDispatch(c, a, b, m, n, k, opTA, true, workers)
}

// GemmTB computes C = A·Bᵀ where b is stored row-major [n×k] (so the
// logical B is [k×n]) and a is [m×k]. This is the dx-shaped product of
// the backward passes, without materializing the transpose.
func GemmTB(c, a, b []float64, m, n, k, workers int) {
	gemmDispatch(c, a, b, m, n, k, opTB, false, workers)
}

// GemmTBAcc computes C += A·Bᵀ with b stored [n×k].
func GemmTBAcc(c, a, b []float64, m, n, k, workers int) {
	gemmDispatch(c, a, b, m, n, k, opTB, true, workers)
}

func gemmDispatch(c, a, b []float64, m, n, k int, op gemmOp, acc bool, workers int) {
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		if !acc {
			for i := range c[:m*n] {
				c[i] = 0
			}
		}
		return
	}
	units := (m + gemmRowQuad - 1) / gemmRowQuad
	if workers > 1 && units > 1 && m*n*k >= gemmParallelVolume {
		par.For(units, workers, func(u0, u1 int) {
			gemmRows(c, a, b, m, n, k, u0*gemmRowQuad, min(u1*gemmRowQuad, m), op, acc)
		})
		return
	}
	// Called directly, not through par.For: its fn escapes, and a
	// serial GEMM must not allocate a closure.
	gemmRows(c, a, b, m, n, k, 0, m, op, acc)
}

// gemmRows computes C rows [i0, i1). Workers call it with disjoint row
// ranges; the serial path calls it once with the full range.
func gemmRows(c, a, b []float64, m, n, k, i0, i1 int, op gemmOp, acc bool) {
	switch op {
	case opNN:
		gemmRowsNN(c, a, b, n, k, i0, i1, acc)
	case opTA:
		gemmRowsTA(c, a, b, m, n, k, i0, i1, acc)
	case opTB:
		gemmRowsTB(c, a, b, n, k, i0, i1, acc)
	}
}

// gemmRowsNN streams four C rows at a time: per l, four A values are held
// in registers against one pass over a B row segment. Re-slicing the C
// rows to the B segment's length lets the compiler drop the inner bounds
// checks.
func gemmRowsNN(c, a, b []float64, n, k, i0, i1 int, acc bool) {
	for j0 := 0; j0 < n; j0 += gemmNC {
		nc := n - j0
		if nc > gemmNC {
			nc = gemmNC
		}
		i := i0
		for ; i+4 <= i1; i += 4 {
			c0 := c[i*n+j0 : i*n+j0+nc]
			c1 := c[(i+1)*n+j0 : (i+1)*n+j0+nc]
			c2 := c[(i+2)*n+j0 : (i+2)*n+j0+nc]
			c3 := c[(i+3)*n+j0 : (i+3)*n+j0+nc]
			if !acc {
				for j := range c0 {
					c0[j] = 0
				}
				for j := range c1 {
					c1[j] = 0
				}
				for j := range c2 {
					c2[j] = 0
				}
				for j := range c3 {
					c3[j] = 0
				}
			}
			a0 := a[i*k : (i+1)*k]
			a1 := a[(i+1)*k : (i+2)*k]
			a2 := a[(i+2)*k : (i+3)*k]
			a3 := a[(i+3)*k : (i+4)*k]
			l := 0
			for ; l+2 <= k; l += 2 {
				bl0 := b[l*n+j0 : l*n+j0+nc]
				bl1 := b[(l+1)*n+j0 : (l+1)*n+j0+nc]
				bl1 = bl1[:len(bl0)]
				av00, av01 := a0[l], a0[l+1]
				av10, av11 := a1[l], a1[l+1]
				av20, av21 := a2[l], a2[l+1]
				av30, av31 := a3[l], a3[l+1]
				u0 := c0[:len(bl0)]
				u1 := c1[:len(bl0)]
				u2 := c2[:len(bl0)]
				u3 := c3[:len(bl0)]
				for j, bv0 := range bl0 {
					bv1 := bl1[j]
					s0 := u0[j]
					s0 += av00 * bv0
					s0 += av01 * bv1
					u0[j] = s0
					s1 := u1[j]
					s1 += av10 * bv0
					s1 += av11 * bv1
					u1[j] = s1
					s2 := u2[j]
					s2 += av20 * bv0
					s2 += av21 * bv1
					u2[j] = s2
					s3 := u3[j]
					s3 += av30 * bv0
					s3 += av31 * bv1
					u3[j] = s3
				}
			}
			for ; l < k; l++ {
				bl := b[l*n+j0 : l*n+j0+nc]
				av0, av1, av2, av3 := a0[l], a1[l], a2[l], a3[l]
				u0 := c0[:len(bl)]
				u1 := c1[:len(bl)]
				u2 := c2[:len(bl)]
				u3 := c3[:len(bl)]
				for j, bv := range bl {
					u0[j] += av0 * bv
					u1[j] += av1 * bv
					u2[j] += av2 * bv
					u3[j] += av3 * bv
				}
			}
		}
		for ; i < i1; i++ {
			crow := c[i*n+j0 : i*n+j0+nc]
			if !acc {
				for j := range crow {
					crow[j] = 0
				}
			}
			arow := a[i*k : (i+1)*k]
			for l := 0; l < k; l++ {
				bl := b[l*n+j0 : l*n+j0+nc]
				av := arow[l]
				u := crow[:len(bl)]
				for j, bv := range bl {
					u[j] += av * bv
				}
			}
		}
	}
}

// gemmRowsTA is the NN row pass with A read column-wise: a is [k×m], so
// the four row values for each l are the contiguous a[l*m+i .. l*m+i+3].
func gemmRowsTA(c, a, b []float64, m, n, k, i0, i1 int, acc bool) {
	for j0 := 0; j0 < n; j0 += gemmNC {
		nc := n - j0
		if nc > gemmNC {
			nc = gemmNC
		}
		i := i0
		for ; i+4 <= i1; i += 4 {
			c0 := c[i*n+j0 : i*n+j0+nc]
			c1 := c[(i+1)*n+j0 : (i+1)*n+j0+nc]
			c2 := c[(i+2)*n+j0 : (i+2)*n+j0+nc]
			c3 := c[(i+3)*n+j0 : (i+3)*n+j0+nc]
			if !acc {
				for j := range c0 {
					c0[j] = 0
				}
				for j := range c1 {
					c1[j] = 0
				}
				for j := range c2 {
					c2[j] = 0
				}
				for j := range c3 {
					c3[j] = 0
				}
			}
			l := 0
			for ; l+2 <= k; l += 2 {
				bl0 := b[l*n+j0 : l*n+j0+nc]
				bl1 := b[(l+1)*n+j0 : (l+1)*n+j0+nc]
				bl1 = bl1[:len(bl0)]
				as0 := a[l*m+i : l*m+i+4]
				as1 := a[(l+1)*m+i : (l+1)*m+i+4]
				av00, av01 := as0[0], as1[0]
				av10, av11 := as0[1], as1[1]
				av20, av21 := as0[2], as1[2]
				av30, av31 := as0[3], as1[3]
				u0 := c0[:len(bl0)]
				u1 := c1[:len(bl0)]
				u2 := c2[:len(bl0)]
				u3 := c3[:len(bl0)]
				for j, bv0 := range bl0 {
					bv1 := bl1[j]
					s0 := u0[j]
					s0 += av00 * bv0
					s0 += av01 * bv1
					u0[j] = s0
					s1 := u1[j]
					s1 += av10 * bv0
					s1 += av11 * bv1
					u1[j] = s1
					s2 := u2[j]
					s2 += av20 * bv0
					s2 += av21 * bv1
					u2[j] = s2
					s3 := u3[j]
					s3 += av30 * bv0
					s3 += av31 * bv1
					u3[j] = s3
				}
			}
			for ; l < k; l++ {
				bl := b[l*n+j0 : l*n+j0+nc]
				as := a[l*m+i : l*m+i+4]
				av0, av1, av2, av3 := as[0], as[1], as[2], as[3]
				u0 := c0[:len(bl)]
				u1 := c1[:len(bl)]
				u2 := c2[:len(bl)]
				u3 := c3[:len(bl)]
				for j, bv := range bl {
					u0[j] += av0 * bv
					u1[j] += av1 * bv
					u2[j] += av2 * bv
					u3[j] += av3 * bv
				}
			}
		}
		for ; i < i1; i++ {
			crow := c[i*n+j0 : i*n+j0+nc]
			if !acc {
				for j := range crow {
					crow[j] = 0
				}
			}
			for l := 0; l < k; l++ {
				bl := b[l*n+j0 : l*n+j0+nc]
				av := a[l*m+i]
				u := crow[:len(bl)]
				for j, bv := range bl {
					u[j] += av * bv
				}
			}
		}
	}
}

// gemmRowsTB computes C elements as dot products over b's rows (logical
// B columns), 2×2 tiles at a time so each pair of a-row/b-row loads
// feeds four accumulators. Both operands are contiguous in l, so no
// chunking is needed.
func gemmRowsTB(c, a, b []float64, n, k, i0, i1 int, acc bool) {
	i := i0
	for ; i+2 <= i1; i += 2 {
		ar0 := a[i*k : (i+1)*k]
		ar1 := a[(i+1)*k : (i+2)*k]
		ar1 = ar1[:len(ar0)]
		cr0 := c[i*n : (i+1)*n]
		cr1 := c[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+2 <= n; j += 2 {
			br0 := b[j*k : (j+1)*k]
			br1 := b[(j+1)*k : (j+2)*k]
			br0 = br0[:len(ar0)]
			br1 = br1[:len(ar0)]
			var s00, s01, s10, s11 float64
			if acc {
				s00, s01 = cr0[j], cr0[j+1]
				s10, s11 = cr1[j], cr1[j+1]
			}
			for l, av0 := range ar0 {
				b0 := br0[l]
				b1 := br1[l]
				s00 += av0 * b0
				s01 += av0 * b1
				av1 := ar1[l]
				s10 += av1 * b0
				s11 += av1 * b1
			}
			cr0[j], cr0[j+1] = s00, s01
			cr1[j], cr1[j+1] = s10, s11
		}
		for ; j < n; j++ {
			bcol := b[j*k : (j+1)*k]
			bcol = bcol[:len(ar0)]
			var s0, s1 float64
			if acc {
				s0, s1 = cr0[j], cr1[j]
			}
			for l, av0 := range ar0 {
				bv := bcol[l]
				s0 += av0 * bv
				s1 += ar1[l] * bv
			}
			cr0[j], cr1[j] = s0, s1
		}
	}
	for ; i < i1; i++ {
		ar := a[i*k : (i+1)*k]
		cr := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bcol := b[j*k : (j+1)*k]
			bcol = bcol[:len(ar)]
			var s float64
			if acc {
				s = cr[j]
			}
			for l, av := range ar {
				s += av * bcol[l]
			}
			cr[j] = s
		}
	}
}
