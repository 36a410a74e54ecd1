package tensor

import "fmt"

// MatMul returns a new tensor holding the matrix product a·b.
// a must have shape [m, k] and b shape [k, n].
func MatMul(a, b *Dense) *Dense {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	Gemm(out.data, a.data, b.data, m, n, k)
	return out
}

// Transpose returns a new tensor with the transpose of a rank-2 tensor.
func Transpose(a *Dense) *Dense {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires rank-2 tensor")
	}
	out := New(a.shape[1], a.shape[0])
	TransposeInto(out, a)
	return out
}

// TransposeInto writes the transpose of rank-2 a into out, which must
// have shape [a.Dim(1), a.Dim(0)]. No allocation; out may be reused
// across calls.
func TransposeInto(out, a *Dense) {
	if a.Rank() != 2 || out.Rank() != 2 {
		panic("tensor: TransposeInto requires rank-2 tensors")
	}
	m, n := a.shape[0], a.shape[1]
	if out.shape[0] != n || out.shape[1] != m {
		panic(fmt.Sprintf("tensor: TransposeInto shape mismatch %v -> %v", a.shape, out.shape))
	}
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		for j, v := range row {
			out.data[j*m+i] = v
		}
	}
}

// MatVec computes y = A·x for A [m×k] and x of length k, returning y of
// length m.
func MatVec(a *Dense, x []float64) []float64 {
	y := make([]float64, a.shape[0])
	MatVecInto(y, a, x)
	return y
}

// MatVecInto computes y = A·x into a caller-owned y of length m. No
// allocation; y may be reused across calls.
func MatVecInto(y []float64, a *Dense, x []float64) {
	if a.Rank() != 2 {
		panic("tensor: MatVec requires rank-2 tensor")
	}
	m, k := a.shape[0], a.shape[1]
	if len(x) != k || len(y) != m {
		panic("tensor: MatVec dimension mismatch")
	}
	for i := 0; i < m; i++ {
		y[i] = VecDot(a.data[i*k:(i+1)*k], x)
	}
}
