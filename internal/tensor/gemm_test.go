package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"fedms/internal/cpu"
	"fedms/internal/randx"
)

// refGemm is the independent oracle for the blocked kernel: a plain
// triple loop with explicit indexing, accumulating each C element in
// ascending-l order from its initial value. Every exported GEMM variant
// is contracted to match it bit for bit.
func refGemm(c, a, b []float64, m, n, k int, op gemmOp, acc bool) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			if acc {
				s = c[i*n+j]
			}
			for l := 0; l < k; l++ {
				var av, bv float64
				switch op {
				case opNN:
					av, bv = a[i*k+l], b[l*n+j]
				case opTA:
					av, bv = a[l*m+i], b[l*n+j]
				case opTB:
					av, bv = a[i*k+l], b[j*k+l]
				}
				s += av * bv
			}
			c[i*n+j] = s
		}
	}
}

// gemmTestShapes covers tiny and large volumes, all row-quad and
// dot-tile fringe cases (m and n ≡ 0..3 mod 4), k=1, and n spanning
// multiple gemmNC chunks with a ragged tail. The rows after {32, 256,
// 50} aim at the AVX2 pass's tails: column tails n mod 4 ∈ {1, 2, 3}
// next to vector columns, odd k (the last l runs in Go), row tails
// m mod 4 ≠ 0 under full quads, the smallest shapes the assembly takes,
// and n > gemmNC with a vector-plus-tail second chunk.
var gemmTestShapes = []struct{ m, n, k int }{
	{1, 1, 1},
	{3, 5, 7},
	{4, 4, 4},
	{5, 9, 3},
	{2, 17, 1},
	{16, 16, 16},
	{17, 19, 23},
	{32, 48, 20},
	{33, 65, 17},
	{1, 300, 100},
	{64, 100, 31},
	{30, 513, 9},
	{7, 1030, 12},
	{96, 160, 16},
	{32, 256, 50},
	{4, 4, 2},
	{4, 5, 2},
	{4, 6, 3},
	{8, 7, 5},
	{32, 10, 64},
	{13, 10, 33},
	{6, 14, 2},
	{9, 1, 8},
	{21, 1027, 11},
	{12, 1028, 4},
}

func randGemmOperands(r *randx.RNG, m, n, k int, op gemmOp) (a, b, c []float64) {
	a = make([]float64, m*k)
	b = make([]float64, k*n)
	c = make([]float64, m*n)
	randx.Normal(r, a, 0, 1)
	randx.Normal(r, b, 0, 1)
	randx.Normal(r, c, 0, 1)
	// A few exact zeros in each operand: the old kernel special-cased
	// them, so make sure dropping that path stays bit-identical.
	for i := 0; i < len(a); i += 7 {
		a[i] = 0
	}
	for i := 0; i < len(b); i += 5 {
		b[i] = 0
	}
	return a, b, c
}

// forEachKernel runs f once per GEMM kernel this CPU can run: the
// pure-Go kernel always, and the AVX2 pass where the CPU has it.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	kernels := []bool{false}
	if cpu.AVX2 {
		kernels = append(kernels, true)
	}
	for _, on := range kernels {
		name := "go"
		if on {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			defer SetAVX2(on)()
			f(t)
		})
	}
}

func requireBitIdentical(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %#x), want %v (bits %#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	got := make([]float64, 4)
	Gemm(got, []float64{1, 2, 3, 4, 5, 6}, []float64{7, 8, 9, 10, 11, 12}, 2, 2, 3, 1)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Gemm = %v, want %v", got, want)
		}
	}
}

// TestMatMulAgainstNaive holds Gemm to the textbook product over random
// small shapes, read through Dense.At.
func TestMatMulAgainstNaive(t *testing.T) {
	err := quick.Check(func(seed uint64, mr, nr, kr uint8) bool {
		m, n, k := 1+int(mr)%7, 1+int(nr)%7, 1+int(kr)%7
		r := randx.New(seed)
		a, b := New(m, k), New(k, n)
		a.FillNormal(r, 0, 1)
		b.FillNormal(r, 0, 1)
		got := New(m, n)
		Gemm(got.Data(), a.Data(), b.Data(), m, n, k, 1)
		want := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for l := 0; l < k; l++ {
					s += a.At(i, l) * b.At(l, j)
				}
				want.Set(s, i, j)
			}
		}
		return got.AllClose(want, 1e-9)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMatMulDimMismatchPanics: a [2×3] A claimed as [2×4] is shorter
// than its shape, and Gemm refuses it before any kernel reads past it.
func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gemm(make([]float64, 4), make([]float64, 6), make([]float64, 8), 2, 2, 4, 1)
}

// TestGemmBitIdenticalToReference is the kernel's contract test: every
// exported variant, over shapes that exercise the naive path, the
// blocked path, edge tiles and multi-chunk N, at Workers ∈ {1, 2, 8},
// must reproduce the reference oracle exactly.
func TestGemmBitIdenticalToReference(t *testing.T) {
	type variant struct {
		name string
		op   gemmOp
		acc  bool
		run  func(c, a, b []float64, m, n, k, workers int)
	}
	variants := []variant{
		{"Gemm", opNN, false, Gemm},
		{"GemmTA", opTA, false, GemmTA},
		{"GemmTAAcc", opTA, true, GemmTAAcc},
		{"GemmTB", opTB, false, GemmTB},
		{"GemmTBAcc", opTB, true, GemmTBAcc},
	}
	forEachKernel(t, func(t *testing.T) {
		r := randx.New(2024)
		for _, sh := range gemmTestShapes {
			for _, v := range variants {
				a, b, c := randGemmOperands(r, sh.m, sh.n, sh.k, v.op)
				want := append([]float64(nil), c...)
				refGemm(want, a, b, sh.m, sh.n, sh.k, v.op, v.acc)
				for _, workers := range []int{1, 2, 8} {
					got := append([]float64(nil), c...)
					v.run(got, a, b, sh.m, sh.n, sh.k, workers)
					label := fmt.Sprintf("%s m=%d n=%d k=%d workers=%d", v.name, sh.m, sh.n, sh.k, workers)
					requireBitIdentical(t, got, want, label)
				}
			}
		}
	})
}

// TestGemmWorkerCountsAgree pins the parallel path against the serial
// one directly on a shape large enough that the row panels really are
// split: any worker count must leave C bit-identical.
func TestGemmWorkerCountsAgree(t *testing.T) {
	const m, n, k = 61, 530, 37
	forEachKernel(t, func(t *testing.T) {
		r := randx.New(7)
		a, b, c := randGemmOperands(r, m, n, k, opNN)
		serial := append([]float64(nil), c...)
		Gemm(serial, a, b, m, n, k, 1)
		for _, workers := range []int{2, 3, 5, 8, 64} {
			got := append([]float64(nil), c...)
			Gemm(got, a, b, m, n, k, workers)
			requireBitIdentical(t, got, serial, fmt.Sprintf("workers=%d", workers))
		}
		// TB packs Bᵀ once and shares it across the workers.
		bt := make([]float64, n*k)
		randx.Normal(r, bt, 0, 1)
		GemmTB(serial, a, bt, m, n, k, 1)
		for _, workers := range []int{2, 3, 5, 8, 64} {
			got := make([]float64, m*n)
			GemmTB(got, a, bt, m, n, k, workers)
			requireBitIdentical(t, got, serial, fmt.Sprintf("GemmTB workers=%d", workers))
		}
	})
}

// TestGemmTBConcurrentCalls runs TB products of several shapes from
// several goroutines at once: each call packs Bᵀ into its own pooled
// panel, so under -race no two calls may share one, and every result
// must still match the reference.
func TestGemmTBConcurrentCalls(t *testing.T) {
	shapes := []struct{ m, n, k int }{{32, 128, 64}, {32, 64, 10}, {8, 7, 5}, {61, 530, 37}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := randx.New(uint64(100 + g))
			for it := 0; it < 20; it++ {
				sh := shapes[(g+it)%len(shapes)]
				a, b, c := randGemmOperands(r, sh.m, sh.n, sh.k, opTB)
				want := append([]float64(nil), c...)
				refGemm(want, a, b, sh.m, sh.n, sh.k, opTB, true)
				GemmTBAcc(c, a, b, sh.m, sh.n, sh.k, 1+g%2)
				for i := range want {
					if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
						t.Errorf("goroutine %d shape %v: element %d = %v, want %v", g, sh, i, c[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGemmMatchesOldNaiveSemantics pins the compatibility claim made in
// gemm.go's preamble: the blocked kernel reproduces the seed repo's
// original ikj loop (with its a==0 skip) bit for bit on finite data.
func TestGemmMatchesOldNaiveSemantics(t *testing.T) {
	oldGemm := func(c, a, b []float64, m, n, k int) {
		for i := range c[:m*n] {
			c[i] = 0
		}
		for i := 0; i < m; i++ {
			arow := a[i*k : (i+1)*k]
			crow := c[i*n : (i+1)*n]
			for l := 0; l < k; l++ {
				av := arow[l]
				if av == 0 {
					continue
				}
				brow := b[l*n : (l+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
	r := randx.New(99)
	for _, sh := range gemmTestShapes {
		a, b, c := randGemmOperands(r, sh.m, sh.n, sh.k, opNN)
		want := append([]float64(nil), c...)
		oldGemm(want, a, b, sh.m, sh.n, sh.k)
		got := append([]float64(nil), c...)
		Gemm(got, a, b, sh.m, sh.n, sh.k, 1)
		requireBitIdentical(t, got, want, fmt.Sprintf("m=%d n=%d k=%d", sh.m, sh.n, sh.k))
	}
}

// TestGemmTransposedVariantsMatchExplicitTranspose checks the TA/TB
// stride handling against materialized transposes fed to plain Gemm.
func TestGemmTransposedVariantsMatchExplicitTranspose(t *testing.T) {
	const m, n, k = 23, 41, 19
	r := randx.New(5)

	// TA: a stored [k×m].
	at := make([]float64, k*m)
	b := make([]float64, k*n)
	randx.Normal(r, at, 0, 1)
	randx.Normal(r, b, 0, 1)
	want := make([]float64, m*n)
	Gemm(want, transposed(at, k, m), b, m, n, k, 1)
	got := make([]float64, m*n)
	GemmTA(got, at, b, m, n, k, 2)
	requireBitIdentical(t, got, want, "GemmTA vs explicit transpose")

	// TB: b stored [n×k].
	a := make([]float64, m*k)
	bt := make([]float64, n*k)
	randx.Normal(r, a, 0, 1)
	randx.Normal(r, bt, 0, 1)
	Gemm(want, a, transposed(bt, n, k), m, n, k, 1)
	GemmTB(got, a, bt, m, n, k, 2)
	requireBitIdentical(t, got, want, "GemmTB vs explicit transpose")
}

// transposed returns the transpose of the row-major [rows×cols] matrix
// a, as a new [cols×rows] matrix.
func transposed(a []float64, rows, cols int) []float64 {
	t := make([]float64, len(a))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			t[j*rows+i] = a[i*cols+j]
		}
	}
	return t
}

// TestGemmZeroK preserves the k=0 edge semantics: Gemm zeroes C, the
// accumulating variants leave it untouched.
func TestGemmZeroK(t *testing.T) {
	c := []float64{1, 2, 3, 4}
	Gemm(c, nil, nil, 2, 2, 0, 1)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("Gemm k=0: c[%d] = %v, want 0", i, v)
		}
	}
	c = []float64{1, 2, 3, 4}
	GemmTAAcc(c, nil, nil, 2, 2, 0, 1)
	if c[0] != 1 || c[3] != 4 {
		t.Fatalf("GemmTAAcc k=0 should leave c untouched, got %v", c)
	}
}

// BenchmarkGemm tracks the kernel at the GEMM shapes of the internal/nn
// layers, in GFLOP/s: the MLP's fc1 forward and weight gradient, a
// SmallCNN-style 3x3 conv lowering and a MobileNet-style 1x1 expansion,
// both over a batch of 8 16x16 feature maps, then the eight products of
// one engine_paper local step (the 32→128→64→10 MLP on a batch of 32:
// three forward NN, three weight-gradient TA and the two input
// gradients past the first layer as TB).
func BenchmarkGemm(b *testing.B) {
	for _, sh := range []struct {
		name    string
		op      gemmOp
		m, n, k int
	}{
		{"dense_fwd_32x256x784", opNN, 32, 256, 784},
		{"dense_dw_784x256x32", opNN, 784, 256, 32},
		{"conv3x3_32x2048x144", opNN, 32, 2048, 144},
		{"conv_pointwise_96x2048x16", opNN, 96, 2048, 16},
		{"paper_fc0_fwd_32x128x32", opNN, 32, 128, 32},
		{"paper_fc1_fwd_32x64x128", opNN, 32, 64, 128},
		{"paper_out_fwd_32x10x64", opNN, 32, 10, 64},
		{"paper_fc0_dw_32x128x32", opTA, 32, 128, 32},
		{"paper_fc1_dw_128x64x32", opTA, 128, 64, 32},
		{"paper_out_dw_64x10x32", opTA, 64, 10, 32},
		{"paper_fc1_dx_32x128x64", opTB, 32, 128, 64},
		{"paper_out_dx_32x64x10", opTB, 32, 64, 10},
	} {
		b.Run(sh.name, func(b *testing.B) {
			r := randx.New(1)
			a, bb, c := randGemmOperands(r, sh.m, sh.n, sh.k, sh.op)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemmDispatch(c, a, bb, sh.m, sh.n, sh.k, sh.op, sh.op == opTA, 1)
			}
			b.ReportMetric(2*float64(sh.m*sh.n*sh.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
