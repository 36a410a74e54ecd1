package tensor

import (
	"fmt"
	"math"
)

// Add computes t += o element-wise.
func (t *Dense) Add(o *Dense) *Dense {
	checkSameVolume(t, o, "Add")
	for i, v := range o.data {
		t.data[i] += v
	}
	return t
}

// Sub computes t -= o element-wise.
func (t *Dense) Sub(o *Dense) *Dense {
	checkSameVolume(t, o, "Sub")
	for i, v := range o.data {
		t.data[i] -= v
	}
	return t
}

// Scale computes t *= a.
func (t *Dense) Scale(a float64) *Dense {
	for i := range t.data {
		t.data[i] *= a
	}
	return t
}

// AddScalar computes t += a element-wise.
func (t *Dense) AddScalar(a float64) *Dense {
	for i := range t.data {
		t.data[i] += a
	}
	return t
}

// Apply replaces each element x with f(x).
func (t *Dense) Apply(f func(float64) float64) *Dense {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Dense) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Dense) Mean() float64 { return t.Sum() / float64(len(t.data)) }

// Max returns the maximum element.
func (t *Dense) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

func checkSameVolume(a, b *Dense, op string) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s volume mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Vector helpers ------------------------------------------------------------
//
// Aggregation rules and attacks work directly on []float64 parameter
// vectors; these free functions keep that code allocation-conscious.

// VecAdd computes dst[i] += src[i].
func VecAdd(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: VecAdd length mismatch")
	}
	for i, v := range src {
		dst[i] += v
	}
}

// VecAxpy computes dst[i] += a*src[i].
func VecAxpy(dst []float64, a float64, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: VecAxpy length mismatch")
	}
	for i, v := range src {
		dst[i] += a * v
	}
}

// VecScale computes dst[i] *= a.
func VecScale(dst []float64, a float64) {
	for i := range dst {
		dst[i] *= a
	}
}

// VecNorm2 returns the L2 norm of v.
func VecNorm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// VecSqDist returns the squared L2 distance between a and b — the
// quantity Krum-style scores accumulate, without VecDist2's sqrt that
// callers would immediately square away.
func VecSqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: VecSqDist length mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// VecDist2 returns the L2 distance between a and b.
func VecDist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: VecDist2 length mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// VecMean writes the element-wise mean of vecs into dst.
func VecMean(dst []float64, vecs [][]float64) {
	if len(vecs) == 0 {
		panic("tensor: VecMean of no vectors")
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, v := range vecs {
		VecAdd(dst, v)
	}
	VecScale(dst, 1/float64(len(vecs)))
}
