// Package tensor implements the dense float64 tensors that underpin the
// neural-network substrate. Tensors are contiguous row-major buffers with
// an explicit shape; reshaping shares the buffer, cloning copies it.
//
// The package is deliberately small: it provides exactly the kernels the
// nn package needs (element-wise arithmetic, GEMM, im2col) plus the
// reductions used by metrics and aggregation. All code is pure Go on the
// standard library.
package tensor

import (
	"fmt"
	"math"
	"strings"

	"fedms/internal/randx"
)

// Dense is a dense row-major tensor of float64 values.
type Dense struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Dense {
	n := checkShape(shape)
	return &Dense{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape volume.
func FromSlice(data []float64, shape ...int) *Dense {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Dense{shape: append([]int(nil), shape...), data: data}
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Dense {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns a copy of the tensor's shape.
func (t *Dense) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the size of dimension i.
func (t *Dense) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Dense) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Dense) Len() int { return len(t.data) }

// Data returns the underlying buffer. Mutating it mutates the tensor.
func (t *Dense) Data() []float64 { return t.data }

// At returns the element at the given multi-index.
func (t *Dense) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Dense) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Dense) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Reshape returns a tensor sharing t's buffer with a new shape of equal
// volume.
func (t *Dense) Reshape(shape ...int) *Dense {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.data), shape))
	}
	return &Dense{shape: append([]int(nil), shape...), data: t.data}
}

// Clone returns a deep copy of t.
func (t *Dense) Clone() *Dense {
	c := &Dense{shape: append([]int(nil), t.shape...), data: make([]float64, len(t.data))}
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must have equal volume.
func (t *Dense) CopyFrom(src *Dense) {
	if len(t.data) != len(src.data) {
		panic("tensor: CopyFrom volume mismatch")
	}
	copy(t.data, src.data)
}

// Zero sets every element to 0.
func (t *Dense) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// FillNormal fills t with Gaussian samples.
func (t *Dense) FillNormal(r *randx.RNG, mean, std float64) {
	randx.Normal(r, t.data, mean, std)
}

// FillUniform fills t with U[lo, hi) samples.
func (t *Dense) FillUniform(r *randx.RNG, lo, hi float64) {
	randx.Uniform(r, t.data, lo, hi)
}

// Row returns a view of row i of a rank-2 tensor as a slice.
func (t *Dense) Row(i int) []float64 {
	if len(t.shape) != 2 {
		panic("tensor: Row requires rank-2 tensor")
	}
	w := t.shape[1]
	return t.data[i*w : (i+1)*w]
}

// SameShape reports whether t and o have identical shapes.
func (t *Dense) SameShape(o *Dense) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether every element of t is within tol of the
// corresponding element of o.
func (t *Dense) AllClose(o *Dense, tol float64) bool {
	if len(t.data) != len(o.data) {
		return false
	}
	for i := range t.data {
		if math.Abs(t.data[i]-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description, truncating large tensors.
func (t *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dense%v[", t.shape)
	n := len(t.data)
	show := n
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if show < n {
		fmt.Fprintf(&b, " ... (%d total)", n)
	}
	b.WriteString("]")
	return b.String()
}
