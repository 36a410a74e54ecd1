package nn

import "fedms/internal/tensor"

// Sequential chains layers; it is itself a Layer, so blocks compose.
type Sequential struct {
	name   string
	layers []Layer
}

// NewSequential constructs a sequential container.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, layers: layers}
}

// Add appends layers to the container.
func (s *Sequential) Add(layers ...Layer) *Sequential {
	s.layers = append(s.layers, layers...)
	return s
}

// Layers returns the contained layers.
func (s *Sequential) Layers() []Layer { return s.layers }

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	for _, l := range s.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer. A layer that returns nil (the network's
// input layer, see markInputLayer) ends the pass: nothing before it has
// parameters.
func (s *Sequential) Backward(grad *tensor.Dense) *tensor.Dense {
	for i := len(s.layers) - 1; i >= 0 && grad != nil; i-- {
		grad = s.layers[i].Backward(grad)
	}
	return grad
}

// Residual wraps an inner layer with a skip connection:
// y = x + inner(x). Input and output shapes must match, which the
// inverted-residual construction guarantees (stride 1, equal channels).
type Residual struct {
	name  string
	inner Layer
	outB  outCache
	dxB   outCache
}

// NewResidual constructs a residual wrapper around inner.
func NewResidual(name string, inner Layer) *Residual {
	return &Residual{name: name, inner: inner}
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Params implements Layer.
func (r *Residual) Params() []*Param { return r.inner.Params() }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	inner := r.inner.Forward(x, train)
	out := r.outB.like(x)
	out.CopyFrom(inner)
	out.Add(x)
	return out
}

// Backward implements Layer.
func (r *Residual) Backward(grad *tensor.Dense) *tensor.Dense {
	inner := r.inner.Backward(grad)
	dx := r.dxB.like(grad)
	dx.CopyFrom(inner)
	dx.Add(grad)
	return dx
}
