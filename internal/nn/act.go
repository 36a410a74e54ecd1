package nn

import "fedms/internal/tensor"

// ReLU is the rectified linear activation, optionally clipped at a cap
// (cap = 6 gives the ReLU6 used throughout MobileNet V2; cap <= 0 means
// no clipping).
type ReLU struct {
	name string
	cap  float64

	mask    []bool // armed for Backward; nil otherwise
	maskBuf []bool
	outB    outCache
	dxB     outCache
}

// NewReLU returns an unclipped rectifier.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// NewReLU6 returns the ReLU6 activation min(max(x,0),6) used by
// MobileNet V2.
func NewReLU6(name string) *ReLU { return &ReLU{name: name, cap: 6} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	out := l.outB.like(x)
	d := out.Data()
	xd := x.Data()
	var mask []bool
	if train {
		l.maskBuf = growB(l.maskBuf, len(d))
		mask = l.maskBuf
	}
	// Four specialized loops (capped × masked) keep the per-element work
	// to the comparisons alone on this hot path.
	switch {
	case l.cap > 0 && mask != nil:
		for i, v := range xd {
			if v <= 0 {
				d[i] = 0
				mask[i] = false
			} else if v >= l.cap {
				d[i] = l.cap
				mask[i] = false
			} else {
				d[i] = v
				mask[i] = true
			}
		}
	case l.cap > 0:
		for i, v := range xd {
			if v <= 0 {
				d[i] = 0
			} else if v >= l.cap {
				d[i] = l.cap
			} else {
				d[i] = v
			}
		}
	case mask != nil:
		for i, v := range xd {
			if v > 0 {
				d[i] = v
				mask[i] = true
			} else {
				d[i] = 0
				mask[i] = false
			}
		}
	default:
		for i, v := range xd {
			if v > 0 {
				d[i] = v
			} else {
				d[i] = 0
			}
		}
	}
	if train {
		l.mask = mask
	}
	return out
}

// Backward implements Layer.
func (l *ReLU) Backward(grad *tensor.Dense) *tensor.Dense {
	if l.mask == nil {
		panic("nn: ReLU.Backward before Forward(train)")
	}
	out := l.dxB.like(grad)
	d := out.Data()
	gd := grad.Data()
	for i, g := range gd {
		if l.mask[i] {
			d[i] = g
		} else {
			d[i] = 0
		}
	}
	l.mask = nil
	return out
}

// Flatten reshapes [N, ...] inputs to [N, features]. It is shape
// bookkeeping only; gradients flow through unchanged.
type Flatten struct {
	name      string
	lastShape []int // armed for Backward; nil otherwise
	shapeBuf  []int
	fwdView   viewCache
	bwdView   viewCache
}

// NewFlatten constructs a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (l *Flatten) Name() string { return l.name }

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if train {
		l.shapeBuf = l.shapeBuf[:0]
		for i := 0; i < x.Rank(); i++ {
			l.shapeBuf = append(l.shapeBuf, x.Dim(i))
		}
		l.lastShape = l.shapeBuf
	}
	n := x.Dim(0)
	return l.fwdView.get(x.Data(), n, x.Len()/n)
}

// Backward implements Layer.
func (l *Flatten) Backward(grad *tensor.Dense) *tensor.Dense {
	if l.lastShape == nil {
		panic("nn: Flatten.Backward before Forward(train)")
	}
	out := l.bwdView.get(grad.Data(), l.lastShape...)
	l.lastShape = nil
	return out
}
