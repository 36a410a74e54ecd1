package nn

import (
	"fmt"
	"math"

	"fedms/internal/randx"
	"fedms/internal/tensor"
)

// Conv2D is a 2-D convolution over [N, C, H, W] inputs with symmetric
// zero padding. It is either a standard convolution, lowered over the
// whole batch into one GEMM per pass, or the depthwise convolution of
// MobileNet V2's inverted residual blocks (every channel plane filtered
// on its own, inC == outC), which runs the direct depthwise kernels.
type Conv2D struct {
	name      string
	inC       int
	outC      int
	kh, kw    int
	stride    int
	pad       int
	depthwise bool
	useBias   bool

	w *Param // [outC, inC*kh*kw], or [channels, kh*kw] when depthwise
	b *Param // [outC], nil when useBias is false

	lastX *tensor.Dense
	// skipDX: Backward returns nil instead of the input gradient (see
	// markInputLayer). A depthwise layer's fused kernel still writes it.
	skipDX bool

	// Scratch arena (see scratch.go): the batched im2col matrix, the
	// [outC, N*L] GEMM output or gathered output gradient, the column
	// gradient, and the cached output/input-gradient tensors.
	workers int
	cols    []float64
	gbuf    []float64
	dcols   []float64
	outB    outCache
	dxB     outCache
}

// ConvOpts configures optional Conv2D behaviour.
type ConvOpts struct {
	Stride int  // default 1
	Pad    int  // default 0
	NoBias bool // convolutions followed by batch norm typically skip bias
}

// NewConv2D constructs a standard convolution layer with He-normal
// initialization.
func NewConv2D(name string, inC, outC, kernel int, opts ConvOpts, r *randx.RNG) *Conv2D {
	return newConv2D(name, inC, outC, kernel, opts, false, r)
}

// NewDepthwiseConv2D constructs the depthwise convolution used inside
// inverted residual blocks: one kernel×kernel filter per channel.
func NewDepthwiseConv2D(name string, channels, kernel int, stride, pad int, r *randx.RNG) *Conv2D {
	return newConv2D(name, channels, channels, kernel, ConvOpts{Stride: stride, Pad: pad, NoBias: true}, true, r)
}

func newConv2D(name string, inC, outC, kernel int, opts ConvOpts, depthwise bool, r *randx.RNG) *Conv2D {
	if opts.Stride == 0 {
		opts.Stride = 1
	}
	fanIn := inC * kernel * kernel
	if depthwise {
		fanIn = kernel * kernel
	}
	w := tensor.New(outC, fanIn)
	w.FillNormal(r, 0, math.Sqrt(2.0/float64(fanIn)))
	c := &Conv2D{
		name:      name,
		inC:       inC,
		outC:      outC,
		kh:        kernel,
		kw:        kernel,
		stride:    opts.Stride,
		pad:       opts.Pad,
		depthwise: depthwise,
		useBias:   !opts.NoBias,
		w:         newParam(name+".w", w, true),
	}
	if c.useBias {
		c.b = newParam(name+".b", tensor.New(outC), true)
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.b != nil {
		return []*Param{c.w, c.b}
	}
	return []*Param{c.w}
}

// OutShape returns the output spatial dimensions for an input of h×w.
func (c *Conv2D) OutShape(h, w int) (int, int) {
	return tensor.ConvOutSize(h, c.kh, c.stride, c.pad), tensor.ConvOutSize(w, c.kw, c.stride, c.pad)
}

// setWorkers implements workersSetter: the GEMMs and the depthwise
// kernels fan out over up to w goroutines.
func (c *Conv2D) setWorkers(w int) { c.workers = w }

// Forward implements Layer. A standard layer lowers the whole batch once
// (Im2ColBatch) and convolves it with a single GEMM, instead of N small
// GEMMs; the result lands in a [outC, N*L] buffer whose rows are
// scattered back into the [N, outC, L] output. Per output element the
// arithmetic — a dot over the patch dimension, then a bias add — is the
// same as the per-image lowering's, in the same order, so results are
// bit-identical to it.
func (c *Conv2D) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	if x.Rank() != 4 || x.Dim(1) != c.inC {
		panic(fmt.Sprintf("nn: %s expects [N,%d,H,W], got %v", c.name, c.inC, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH, outW := c.OutShape(h, w)
	l := outH * outW

	out := c.outB.get(n, c.outC, outH, outW)
	xd := x.Data()
	od := out.Data()
	wv := c.w.Value.Data()
	if c.depthwise {
		tensor.DepthwiseForward(xd, n, c.inC, h, w, wv, c.kh, c.kw, c.stride, c.pad, c.workers, od)
	} else {
		nl := n * l
		patch := c.inC * c.kh * c.kw
		c.cols = growF(c.cols, patch*nl)
		c.gbuf = growF(c.gbuf, c.outC*nl)
		tensor.Im2ColBatch(xd, n, c.inC, h, w, c.kh, c.kw, c.stride, c.pad, c.cols)
		tensor.Gemm(c.gbuf, wv, c.cols, c.outC, nl, patch, c.workers)
		for ch := 0; ch < c.outC; ch++ {
			grow := c.gbuf[ch*nl : (ch+1)*nl]
			for i := 0; i < n; i++ {
				copy(od[(i*c.outC+ch)*l:(i*c.outC+ch+1)*l], grow[i*l:(i+1)*l])
			}
		}
	}
	c.addBias(od, n, l)
	if train {
		c.lastX = x
	}
	return out
}

// addBias adds the per-channel bias to an [n, outC, l] output buffer.
func (c *Conv2D) addBias(od []float64, n, l int) {
	if !c.useBias {
		return
	}
	bias := c.b.Value.Data()
	for i := 0; i < n; i++ {
		dst := od[i*c.outC*l : (i+1)*c.outC*l]
		for ch := 0; ch < c.outC; ch++ {
			plane := dst[ch*l : (ch+1)*l]
			bv := bias[ch]
			for j := range plane {
				plane[j] += bv
			}
		}
	}
}

// Backward implements Layer. A standard layer recomputes the forward
// lowering (batched im2col is cheaper than caching it), gathers the
// per-image output gradients into the same [outC, N*L] layout, and then
// needs exactly two GEMMs: an accumulating A·Bᵀ for dW and an Aᵀ·B for
// the column gradients, which Col2ImBatch scatters straight into dx.
// Accumulation orders match the per-image lowering (batched columns are
// image-major), so gradients are bit-identical to it.
func (c *Conv2D) Backward(grad *tensor.Dense) *tensor.Dense {
	if c.lastX == nil {
		panic(fmt.Sprintf("nn: %s.Backward before Forward(train)", c.name))
	}
	x := c.lastX
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH, outW := c.OutShape(h, w)
	l := outH * outW

	dx := c.dxB.get(n, c.inC, h, w)
	xd := x.Data()
	gd := grad.Data()
	dxd := dx.Data()
	wv := c.w.Value.Data()
	wg := c.w.Grad.Data()

	if c.depthwise {
		tensor.DepthwiseBackward(xd, gd, n, c.inC, h, w, wv, c.kh, c.kw, c.stride, c.pad, c.workers, wg, dxd)
	} else {
		nl := n * l
		patch := c.inC * c.kh * c.kw
		c.cols = growF(c.cols, patch*nl)
		c.gbuf = growF(c.gbuf, c.outC*nl)
		tensor.Im2ColBatch(xd, n, c.inC, h, w, c.kh, c.kw, c.stride, c.pad, c.cols)
		for ch := 0; ch < c.outC; ch++ {
			grow := c.gbuf[ch*nl : (ch+1)*nl]
			for i := 0; i < n; i++ {
				copy(grow[i*l:(i+1)*l], gd[(i*c.outC+ch)*l:(i*c.outC+ch+1)*l])
			}
		}
		// dW += gbuf · colsᵀ, both operands already patch-major.
		tensor.GemmTBAcc(wg, c.gbuf, c.cols, c.outC, patch, nl, c.workers)
		if !c.skipDX {
			// dcols = Wᵀ · gbuf, then scatter into dx (Col2ImBatch
			// zeroes it before accumulating).
			c.dcols = growF(c.dcols, patch*nl)
			tensor.GemmTA(c.dcols, wv, c.gbuf, patch, nl, c.outC, c.workers)
			tensor.Col2ImBatch(c.dcols, n, c.inC, h, w, c.kh, c.kw, c.stride, c.pad, dxd)
		}
	}
	c.accumBiasGrad(gd, n, l)
	c.lastX = nil
	if c.skipDX {
		return nil
	}
	return dx
}

// accumBiasGrad accumulates the per-channel bias gradient from an
// [n, outC, l] output-gradient buffer, image-major for bit-stable order.
func (c *Conv2D) accumBiasGrad(gd []float64, n, l int) {
	if !c.useBias {
		return
	}
	bg := c.b.Grad.Data()
	for i := 0; i < n; i++ {
		g := gd[i*c.outC*l : (i+1)*c.outC*l]
		for ch := 0; ch < c.outC; ch++ {
			plane := g[ch*l : (ch+1)*l]
			s := 0.0
			for _, v := range plane {
				s += v
			}
			bg[ch] += s
		}
	}
}
