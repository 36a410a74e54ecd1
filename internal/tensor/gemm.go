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
// Kernel shape: the rows stream C through memory rather than holding a
// register tile — in Go a 4×4 float64 tile needs 16 accumulators plus
// operand temporaries and spills amd64's 16 scalar registers every
// iteration.
//
//   - NN/TA: four C rows are updated per pass, two k steps at a time.
//     For each l pair the eight A values sit in registers while two B
//     rows stream through, and each C element is loaded once, updated by
//     two sequential adds (two statements — a single fused expression
//     would re-associate the sum), and stored once. N is chunked by
//     gemmNC so the four active C row segments stay L1-resident for the
//     whole k loop. TA is NN with A read through swapped strides.
//   - TB: logical B columns are stored rows of b, so C elements are
//     plain dot products over contiguous memory; a 2×2 tile of dots
//     shares the four operand loads across four accumulators.
//
// On amd64 CPUs with AVX2 the four-row pass runs in assembly
// (gemm_amd64.s), four columns per instruction: the eight A values are
// broadcast into eight YMM registers, and each C vector takes VMULPD
// then VADDPD per l, the same two roundings in the same order as the Go
// statements, so every lane holds exactly the scalar kernel's value. The
// kernel never emits a fused multiply-add (one rounding instead of two)
// and never splits the l sum. Column tails (n mod 4), an odd last l and
// row tails (m mod 4) stay in Go, in ascending l. TB packs Bᵀ once per
// call, before any fan-out, and runs the NN pass over the packed panel:
// each element is still its own sum in ascending l. The pure-Go kernel
// is the only one elsewhere, and the reference the tests hold the
// assembly to.
//
// The old naive kernel skipped a_il == 0 terms; this one does not. For
// finite inputs the results are still bit-identical: an accumulator that
// holds +0 stays +0 under added ±0 products (x + y is -0 only when both
// operands are -0 in round-to-nearest), and adding ±0 to a non-zero
// value is exact. Only non-finite inputs (0·Inf = NaN) could diverge,
// and no layer produces those.

import (
	"sync"

	"fedms/internal/cpu"
	"fedms/internal/par"
)

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

// gemmAVX2 selects the assembly four-row pass inside gemmRowsAB. It is
// the CPU's answer at init; tests switch it off to hold the assembly to
// the pure-Go kernel.
var gemmAVX2 = cpu.AVX2

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
// C [m×n], with the row loop spread over up to workers goroutines.
// Output is bit-identical for any worker count.
func Gemm(c, a, b []float64, m, n, k, workers int) {
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
	// The assembly pass reads through raw pointers, so the operands'
	// lengths are checked here once instead of by every slice expression.
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: GEMM operand shorter than its shape")
	}
	if op == opTB && gemmAVX2 && m >= 4 && n >= 4 && k >= 2 {
		// Workers share the packed Bᵀ read-only; it goes back to the
		// pool once every row range is done.
		p := packPool.Get().(*[]float64)
		if cap(*p) < k*n {
			*p = make([]float64, k*n)
		}
		bt := (*p)[:k*n]
		packTranspose(bt, b, n, k)
		gemmRowsFanOut(c, a, bt, m, n, k, opNN, acc, workers)
		packPool.Put(p)
		return
	}
	gemmRowsFanOut(c, a, b, m, n, k, op, acc, workers)
}

// gemmRowsFanOut runs gemmRows over all m rows, split into row quads
// across up to workers goroutines once the volume pays for the handoff.
func gemmRowsFanOut(c, a, b []float64, m, n, k int, op gemmOp, acc bool, workers int) {
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

// packPool holds the Bᵀ panels a TB product is packed into on the AVX2
// path; a panel is owned by one GEMM call from Get to Put.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

// packTranspose writes the transpose of b [n×k] into bt [k×n], four b
// rows at a time so that each bt row is written four contiguous values
// per step instead of one value per cache line.
func packTranspose(bt, b []float64, n, k int) {
	j := 0
	for ; j+4 <= n; j += 4 {
		r0 := b[j*k : (j+1)*k]
		r1 := b[(j+1)*k : (j+2)*k][:len(r0)]
		r2 := b[(j+2)*k : (j+3)*k][:len(r0)]
		r3 := b[(j+3)*k : (j+4)*k][:len(r0)]
		for l, v := range r0 {
			d := bt[l*n+j : l*n+j+4]
			d[0], d[1], d[2], d[3] = v, r1[l], r2[l], r3[l]
		}
	}
	for ; j < n; j++ {
		for l, v := range b[j*k : (j+1)*k] {
			bt[l*n+j] = v
		}
	}
}

// gemmRows computes C rows [i0, i1). Workers call it with disjoint row
// ranges; the serial path calls it once with the full range.
func gemmRows(c, a, b []float64, m, n, k, i0, i1 int, op gemmOp, acc bool) {
	switch op {
	case opNN:
		gemmRowsAB(c, a, b, n, k, i0, i1, k, 1, acc)
	case opTA:
		gemmRowsAB(c, a, b, n, k, i0, i1, 1, m, acc)
	case opTB:
		gemmRowsTB(c, a, b, n, k, i0, i1, acc)
	}
}

// gemmRowsAB streams four C rows at a time: per l pair, eight A values
// are held in registers against one pass over two B row segments. The
// logical A element (i, l) is a[i*ars+l*als], so NN passes strides
// (k, 1) and TA, whose a is stored [k×m], passes (1, m). Re-slicing the
// C rows to the B segment's length lets the compiler drop the inner
// bounds checks. With gemmAVX2 the first nc&^3 columns of every l pair
// run in gemmQuadAVX2 and the loops below finish the rest.
func gemmRowsAB(c, a, b []float64, n, k, i0, i1, ars, als int, acc bool) {
	for j0 := 0; j0 < n; j0 += gemmNC {
		nc := min(n-j0, gemmNC)
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
			js := 0 // columns [0, js) of every l pair are done in assembly
			if gemmAVX2 && k >= 2 && nc >= 4 {
				js = nc &^ 3
				gemmQuadAVX2(&c0[0], n, &a[i*ars], ars, als, &b[j0], n, js, k/2)
			}
			for l := 0; js < nc && l+2 <= k; l += 2 {
				bl0 := b[l*n+j0+js : l*n+j0+nc]
				bl1 := b[(l+1)*n+j0+js : (l+1)*n+j0+nc]
				bl1 = bl1[:len(bl0)]
				p := i*ars + l*als
				av00, av01 := a[p], a[p+als]
				av10, av11 := a[p+ars], a[p+ars+als]
				av20, av21 := a[p+2*ars], a[p+2*ars+als]
				av30, av31 := a[p+3*ars], a[p+3*ars+als]
				u0 := c0[js:][:len(bl0)]
				u1 := c1[js:][:len(bl0)]
				u2 := c2[js:][:len(bl0)]
				u3 := c3[js:][:len(bl0)]
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
			if k%2 == 1 {
				l := k - 1
				bl := b[l*n+j0 : l*n+j0+nc]
				p := i*ars + l*als
				av0, av1, av2, av3 := a[p], a[p+ars], a[p+2*ars], a[p+3*ars]
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
				av := a[i*ars+l*als]
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
