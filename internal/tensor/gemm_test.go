package tensor

import (
	"fmt"
	"math"
	"testing"

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
// multiple gemmNC chunks with a ragged tail.
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

func requireBitIdentical(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %#x), want %v (bits %#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
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
		{"Gemm", opNN, false, func(c, a, b []float64, m, n, k, _ int) { Gemm(c, a, b, m, n, k) }},
		{"GemmAcc", opNN, true, func(c, a, b []float64, m, n, k, _ int) { GemmAcc(c, a, b, m, n, k) }},
		{"GemmWorkers", opNN, false, GemmWorkers},
		{"GemmAccWorkers", opNN, true, GemmAccWorkers},
		{"GemmTA", opTA, false, GemmTA},
		{"GemmTAAcc", opTA, true, GemmTAAcc},
		{"GemmTB", opTB, false, GemmTB},
		{"GemmTBAcc", opTB, true, GemmTBAcc},
	}
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
}

// TestGemmWorkerCountsAgree pins the parallel path against the serial
// one directly on a shape large enough that the row panels really are
// split: any worker count must leave C bit-identical.
func TestGemmWorkerCountsAgree(t *testing.T) {
	const m, n, k = 61, 530, 37
	r := randx.New(7)
	a, b, c := randGemmOperands(r, m, n, k, opNN)
	serial := append([]float64(nil), c...)
	GemmWorkers(serial, a, b, m, n, k, 1)
	for _, workers := range []int{2, 3, 5, 8, 64} {
		got := append([]float64(nil), c...)
		GemmWorkers(got, a, b, m, n, k, workers)
		requireBitIdentical(t, got, serial, fmt.Sprintf("workers=%d", workers))
	}
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
		Gemm(got, a, b, sh.m, sh.n, sh.k)
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
	aT := Transpose(FromSlice(at, k, m)) // [m×k]
	want := make([]float64, m*n)
	Gemm(want, aT.Data(), b, m, n, k)
	got := make([]float64, m*n)
	GemmTA(got, at, b, m, n, k, 2)
	requireBitIdentical(t, got, want, "GemmTA vs explicit transpose")

	// TB: b stored [n×k].
	a := make([]float64, m*k)
	bt := make([]float64, n*k)
	randx.Normal(r, a, 0, 1)
	randx.Normal(r, bt, 0, 1)
	bT := Transpose(FromSlice(bt, n, k)) // [k×n]
	Gemm(want, a, bT.Data(), m, n, k)
	GemmTB(got, a, bt, m, n, k, 2)
	requireBitIdentical(t, got, want, "GemmTB vs explicit transpose")
}

// TestGemmZeroK preserves the k=0 edge semantics: Gemm zeroes C, the Acc
// variants leave it untouched.
func TestGemmZeroK(t *testing.T) {
	c := []float64{1, 2, 3, 4}
	Gemm(c, nil, nil, 2, 2, 0)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("Gemm k=0: c[%d] = %v, want 0", i, v)
		}
	}
	c = []float64{1, 2, 3, 4}
	GemmAcc(c, nil, nil, 2, 2, 0)
	if c[0] != 1 || c[3] != 4 {
		t.Fatalf("GemmAcc k=0 should leave c untouched, got %v", c)
	}
}

// BenchmarkGemm tracks the kernel at the GEMM shapes of the internal/nn
// layers: the MLP's fc1 forward and weight gradient, a SmallCNN-style
// 3x3 conv lowering and a MobileNet-style 1x1 expansion, both over a
// batch of 8 16x16 feature maps.
func BenchmarkGemm(b *testing.B) {
	for _, sh := range []struct {
		name    string
		m, n, k int
	}{
		{"dense_fwd_32x256x784", 32, 256, 784},
		{"dense_dw_784x256x32", 784, 256, 32},
		{"conv3x3_32x2048x144", 32, 2048, 144},
		{"conv_pointwise_96x2048x16", 96, 2048, 16},
	} {
		b.Run(sh.name, func(b *testing.B) {
			r := randx.New(1)
			a := make([]float64, sh.m*sh.k)
			bb := make([]float64, sh.k*sh.n)
			c := make([]float64, sh.m*sh.n)
			randx.Normal(r, a, 0, 1)
			randx.Normal(r, bb, 0, 1)
			b.SetBytes(int64(8 * sh.m * sh.n * sh.k))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(c, a, bb, sh.m, sh.n, sh.k)
			}
		})
	}
}

func TestTransposeInto(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	out := New(3, 2)
	TransposeInto(out, a)
	want := []float64{1, 4, 2, 5, 3, 6}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("TransposeInto[%d] = %v, want %v", i, v, want[i])
		}
	}
	// Shape mismatch must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("TransposeInto with wrong out shape should panic")
		}
	}()
	TransposeInto(New(2, 2), a)
}

func TestMatVecInto(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := []float64{1, 0, -1}
	y := make([]float64, 2)
	MatVecInto(y, a, x)
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MatVecInto = %v, want [-2 -2]", y)
	}
	got := MatVec(a, x)
	if got[0] != y[0] || got[1] != y[1] {
		t.Fatalf("MatVec = %v, want %v", got, y)
	}
}
