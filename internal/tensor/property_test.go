package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"fedms/internal/randx"
)

// Property-based checks of the algebraic identities the rest of the
// system silently relies on.

func randVec(seed uint64, n int) []float64 {
	v := make([]float64, n)
	randx.Normal(randx.New(seed), v, 0, 1)
	return v
}

func TestGemmDistributesOverAddition(t *testing.T) {
	// A·(B+C) == A·B + A·C (within float tolerance).
	err := quick.Check(func(seed uint64, mr, nr, kr uint8) bool {
		m, n, k := 1+int(mr)%5, 1+int(nr)%5, 1+int(kr)%5
		r := randx.New(seed)
		a, b, c := New(m, k), New(k, n), New(k, n)
		a.FillNormal(r, 0, 1)
		b.FillNormal(r, 0, 1)
		c.FillNormal(r, 0, 1)

		sum := b.Clone().Add(c)
		lhs, ab, ac := New(m, n), New(m, n), New(m, n)
		Gemm(lhs.Data(), a.Data(), sum.Data(), m, n, k, 1)
		Gemm(ab.Data(), a.Data(), b.Data(), m, n, k, 1)
		Gemm(ac.Data(), a.Data(), c.Data(), m, n, k, 1)
		return lhs.AllClose(ab.Add(ac), 1e-9)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransposeReversesMatMul(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ.
	err := quick.Check(func(seed uint64, mr, nr, kr uint8) bool {
		m, n, k := 1+int(mr)%5, 1+int(nr)%5, 1+int(kr)%5
		r := randx.New(seed)
		a, b := New(m, k), New(k, n)
		a.FillNormal(r, 0, 1)
		b.FillNormal(r, 0, 1)
		ab := make([]float64, m*n)
		Gemm(ab, a.Data(), b.Data(), m, n, k, 1)
		rhs := make([]float64, n*m)
		Gemm(rhs, transposed(b.Data(), k, n), transposed(a.Data(), m, k), n, m, k, 1)
		return FromSlice(transposed(ab, m, n), n, m).AllClose(FromSlice(rhs, n, m), 1e-9)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// dot is the inner product as the GEMM kernel computes it: a [1×n] by
// [n×1] product.
func dot(a, b []float64) float64 {
	var s [1]float64
	Gemm(s[:], a, b, 1, 1, len(a), 1)
	return s[0]
}

func TestDotSymmetryAndCauchySchwarz(t *testing.T) {
	err := quick.Check(func(seed uint64, nr uint8) bool {
		n := 1 + int(nr)%32
		a := randVec(seed, n)
		b := randVec(seed+1, n)
		if math.Abs(dot(a, b)-dot(b, a)) > 1e-9 {
			return false
		}
		// |<a,b>| <= ‖a‖‖b‖.
		return math.Abs(dot(a, b)) <= VecNorm2(a)*VecNorm2(b)+1e-9
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVecMeanIsLinear(t *testing.T) {
	// mean(a_i + b_i) == mean(a_i) + mean(b_i).
	err := quick.Check(func(seed uint64, cr, dr uint8) bool {
		count := 1 + int(cr)%6
		dim := 1 + int(dr)%10
		as := make([][]float64, count)
		bs := make([][]float64, count)
		sums := make([][]float64, count)
		for i := range as {
			as[i] = randVec(seed+uint64(i), dim)
			bs[i] = randVec(seed+100+uint64(i), dim)
			sums[i] = make([]float64, dim)
			copy(sums[i], as[i])
			VecAdd(sums[i], bs[i])
		}
		ma, mb, ms := make([]float64, dim), make([]float64, dim), make([]float64, dim)
		VecMean(ma, as)
		VecMean(mb, bs)
		VecMean(ms, sums)
		for j := 0; j < dim; j++ {
			if math.Abs(ms[j]-(ma[j]+mb[j])) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	err := quick.Check(func(seed uint64, nr uint8) bool {
		n := 1 + int(nr)%32
		a := randVec(seed, n)
		b := randVec(seed+1, n)
		c := randVec(seed+2, n)
		return VecDist2(a, c) <= VecDist2(a, b)+VecDist2(b, c)+1e-9
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColIsLinear(t *testing.T) {
	// Im2ColBatch(x+y) == Im2ColBatch(x) + Im2ColBatch(y): the lowering
	// is linear, which is what makes conv-as-GEMM valid.
	const c, h, w, kh, kw, stride, pad = 2, 5, 5, 3, 3, 1, 1
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	cols := c * kh * kw * outH * outW

	err := quick.Check(func(seed uint64) bool {
		x := randVec(seed, c*h*w)
		y := randVec(seed+1, c*h*w)
		sum := make([]float64, len(x))
		copy(sum, x)
		VecAdd(sum, y)

		fx := make([]float64, cols)
		fy := make([]float64, cols)
		fsum := make([]float64, cols)
		Im2ColBatch(x, 1, c, h, w, kh, kw, stride, pad, fx)
		Im2ColBatch(y, 1, c, h, w, kh, kw, stride, pad, fy)
		Im2ColBatch(sum, 1, c, h, w, kh, kw, stride, pad, fsum)
		for i := range fsum {
			if math.Abs(fsum[i]-(fx[i]+fy[i])) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}
