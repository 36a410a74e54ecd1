package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"fedms/internal/randx"
)

func naiveMatMul(a, b *Dense) *Dense {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.AllClose(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	err := quick.Check(func(seed uint64, mr, nr, kr uint8) bool {
		m, n, k := 1+int(mr)%7, 1+int(nr)%7, 1+int(kr)%7
		r := randx.New(seed)
		a := New(m, k)
		b := New(k, n)
		a.FillNormal(r, 0, 1)
		b.FillNormal(r, 0, 1)
		return MatMul(a, b).AllClose(naiveMatMul(a, b), 1e-9)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("Transpose shape = %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose values wrong: %v", at)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := randx.New(11)
	a := New(5, 7)
	a.FillNormal(r, 0, 1)
	if !Transpose(Transpose(a)).AllClose(a, 0) {
		t.Fatal("transpose twice must be identity")
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := MatVec(a, []float64{1, 0, -1})
	if math.Abs(y[0]-(-2)) > 1e-12 || math.Abs(y[1]-(-2)) > 1e-12 {
		t.Fatalf("MatVec = %v", y)
	}
}
