package nn

import (
	"slices"

	"fedms/internal/tensor"
)

// Per-layer scratch arenas. Every layer owns the buffers it writes during
// Forward/Backward and reuses them across training steps, so a steady
// shape (the common case: fixed batch size) allocates nothing after the
// first step. Reuse is safe because each client owns its Network and the
// step-t activations are dead before step t+1's forward pass runs; the
// one step-internal aliasing rule is that a layer must never write into
// its input tensor, which belongs to the upstream layer's arena.

// growF returns a float64 slice of length n, reusing buf's backing array
// when it is large enough. Contents are unspecified.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growB is growF for bool masks.
func growB(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// growI is growF for int index buffers.
func growI(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// shapeEq reports whether t has exactly the given dims, without the
// allocation of Dense.Shape().
func shapeEq(t *tensor.Dense, shape []int) bool {
	if t.Rank() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}

// outCache hands out a tensor of the requested shape backed by a reused
// buffer. Same shape as the previous call returns the same tensor (stale
// contents — callers overwrite or Zero it); a shape change re-wraps the
// grown buffer in a fresh header.
type outCache struct {
	t   *tensor.Dense
	buf []float64
}

// get returns the cached tensor, re-wrapped on a shape change. shape
// must not escape, or every call would allocate its variadic slice: a
// miss hands tensor.FromSlice (whose panic message retains its shape
// argument) a copy, so a hit allocates nothing.
func (oc *outCache) get(shape ...int) *tensor.Dense {
	if oc.t != nil && shapeEq(oc.t, shape) {
		return oc.t
	}
	vol := 1
	for _, d := range shape {
		vol *= d
	}
	oc.buf = growF(oc.buf, vol)
	oc.t = tensor.FromSlice(oc.buf, slices.Clone(shape)...)
	return oc.t
}

// like is get with x's shape, using SameShape on the hit path so no
// shape slice is built per step.
func (oc *outCache) like(x *tensor.Dense) *tensor.Dense {
	if oc.t != nil && oc.t.SameShape(x) {
		return oc.t
	}
	return oc.get(x.Shape()...)
}

// viewCache caches a reshaped view over someone else's buffer (Flatten's
// forward/backward), avoiding a header allocation per step when the
// underlying buffer and target shape repeat.
type viewCache struct {
	src  []float64
	view *tensor.Dense
}

func (vc *viewCache) get(data []float64, shape ...int) *tensor.Dense {
	if vc.view != nil && len(vc.src) == len(data) && len(data) > 0 &&
		&vc.src[0] == &data[0] && shapeEq(vc.view, shape) {
		return vc.view
	}
	vc.src = data
	vc.view = tensor.FromSlice(data, slices.Clone(shape)...) // as in outCache.get
	return vc.view
}

// workersSetter is implemented by layers whose kernels can fan out over
// the bounded worker pool; setLayerWorkers threads the knob through
// containers.
type workersSetter interface{ setWorkers(int) }

func setLayerWorkers(l Layer, w int) {
	switch t := l.(type) {
	case *Sequential:
		for _, inner := range t.layers {
			setLayerWorkers(inner, w)
		}
	case *Residual:
		setLayerWorkers(t.inner, w)
	default:
		if ws, ok := l.(workersSetter); ok {
			ws.setWorkers(w)
		}
	}
}
