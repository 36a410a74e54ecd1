package nn

import (
	"math"

	"fedms/internal/tensor"
)

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

// Forward implements Layer. Both loops are branch-free: each value's
// bits are AND-ed with an all-ones or all-zero mask (ones), so the cost
// does not depend on the activations' signs.
func (l *ReLU) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	out := l.outB.like(x)
	xd := x.Data()
	d := out.Data()[:len(xd)]
	var mask []bool
	if train {
		l.maskBuf = growB(l.maskBuf, len(xd))
		mask = l.maskBuf
		l.mask = mask
	}
	if l.cap > 0 {
		// v ≤ 0 (−0 included) → +0, v ≥ cap → cap, anything else (NaN
		// included) passes through and is marked.
		capBits := math.Float64bits(l.cap)
		for i, v := range xd {
			keep := ones(!(v <= 0))
			clip := ones(v >= l.cap)
			d[i] = math.Float64frombits(math.Float64bits(v)&keep&^clip | capBits&clip)
			if mask != nil {
				mask[i] = keep&^clip != 0
			}
		}
		return out
	}
	// v > 0 passes through and is marked; anything else (−0 and NaN
	// included) → +0.
	for i, v := range xd {
		pos := v > 0
		d[i] = math.Float64frombits(math.Float64bits(v) & ones(pos))
		if mask != nil {
			mask[i] = pos
		}
	}
	return out
}

// Backward implements Layer: the gradient where the mask is set, +0
// elsewhere.
func (l *ReLU) Backward(grad *tensor.Dense) *tensor.Dense {
	if l.mask == nil {
		panic("nn: ReLU.Backward before Forward(train)")
	}
	out := l.dxB.like(grad)
	gd := grad.Data()
	d := out.Data()[:len(gd)]
	mask := l.mask[:len(gd)]
	for i, g := range gd {
		d[i] = math.Float64frombits(math.Float64bits(g) & ones(mask[i]))
	}
	l.mask = nil
	return out
}

// ones returns all 64 bits set if b holds and none otherwise; the
// compiler turns it into a conditional move, not a branch.
func ones(b bool) uint64 {
	var m uint64
	if b {
		m = ^uint64(0)
	}
	return m
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
