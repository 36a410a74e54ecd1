package nn

import (
	"fmt"
	"math"

	"fedms/internal/randx"
	"fedms/internal/tensor"
)

// Conv2D is a 2-D convolution over [N, C, H, W] inputs with symmetric
// zero padding and optional channel groups. groups == 1 is a standard
// convolution; groups == inC with outC == inC is the depthwise
// convolution used by MobileNet V2.
type Conv2D struct {
	name    string
	inC     int
	outC    int
	kh, kw  int
	stride  int
	pad     int
	groups  int
	useBias bool

	w *Param // [outC, inC/groups * kh * kw]
	b *Param // [outC], nil when useBias is false

	lastX *tensor.Dense
	// skipDX: Backward returns nil instead of the input gradient (see
	// markInputLayer). A depthwise layer's fused kernel still writes it.
	skipDX bool

	// Scratch arena (see scratch.go): the batched im2col matrix, the
	// gathered/scattered per-group GEMM operand, its backward dual, and
	// the cached output/input-gradient tensors.
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
	Groups int  // default 1
	NoBias bool // convolutions followed by batch norm typically skip bias
}

// NewConv2D constructs a convolution layer with He-normal initialization.
func NewConv2D(name string, inC, outC, kernel int, opts ConvOpts, r *randx.RNG) *Conv2D {
	if opts.Stride == 0 {
		opts.Stride = 1
	}
	if opts.Groups == 0 {
		opts.Groups = 1
	}
	if inC%opts.Groups != 0 || outC%opts.Groups != 0 {
		panic(fmt.Sprintf("nn: %s: channels (%d in, %d out) not divisible by groups %d", name, inC, outC, opts.Groups))
	}
	fanIn := (inC / opts.Groups) * kernel * kernel
	w := tensor.New(outC, fanIn)
	w.FillNormal(r, 0, math.Sqrt(2.0/float64(fanIn)))
	c := &Conv2D{
		name:    name,
		inC:     inC,
		outC:    outC,
		kh:      kernel,
		kw:      kernel,
		stride:  opts.Stride,
		pad:     opts.Pad,
		groups:  opts.Groups,
		useBias: !opts.NoBias,
		w:       newParam(name+".w", w, true),
	}
	if c.useBias {
		c.b = newParam(name+".b", tensor.New(outC), true)
	}
	return c
}

// NewDepthwiseConv2D constructs the depthwise (groups == channels)
// convolution used inside inverted residual blocks.
func NewDepthwiseConv2D(name string, channels, kernel int, stride, pad int, r *randx.RNG) *Conv2D {
	return NewConv2D(name, channels, channels, kernel, ConvOpts{
		Stride: stride,
		Pad:    pad,
		Groups: channels,
		NoBias: true,
	}, r)
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

// setWorkers implements workersSetter: the per-group GEMMs fan out over
// up to w goroutines.
func (c *Conv2D) setWorkers(w int) { c.workers = w }

// Forward implements Layer. The whole batch is lowered once per group
// (Im2ColBatch) and convolved with a single GEMM per group, instead of N
// small GEMMs; the result lands in a [outCg, N*L] buffer whose rows are
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
	nl := n * l
	inCg := c.inC / c.groups
	outCg := c.outC / c.groups
	patch := inCg * c.kh * c.kw

	out := c.outB.get(n, c.outC, outH, outW)
	xd := x.Data()
	od := out.Data()
	wv := c.w.Value.Data()
	if c.depthwise() {
		// groups == channels: convolve each plane directly — no lowering,
		// no per-group GEMM dispatch. Bit-identical to the lowered path.
		tensor.DepthwiseForward(xd, n, c.inC, h, w, wv, c.kh, c.kw, c.stride, c.pad, c.workers, od)
		c.addBias(od, n, l)
		if train {
			c.lastX = x
		}
		return out
	}
	c.cols = growF(c.cols, patch*nl)
	c.gbuf = growF(c.gbuf, outCg*nl)
	for g := 0; g < c.groups; g++ {
		tensor.Im2ColBatch(xd[g*inCg*h*w:], c.inC*h*w, n, inCg, h, w, c.kh, c.kw, c.stride, c.pad, c.cols)
		wBlock := wv[g*outCg*patch : (g+1)*outCg*patch]
		tensor.GemmWorkers(c.gbuf, wBlock, c.cols, outCg, nl, patch, c.workers)
		for ch := 0; ch < outCg; ch++ {
			grow := c.gbuf[ch*nl : (ch+1)*nl]
			oc := g*outCg + ch
			for i := 0; i < n; i++ {
				copy(od[(i*c.outC+oc)*l:(i*c.outC+oc+1)*l], grow[i*l:(i+1)*l])
			}
		}
	}
	c.addBias(od, n, l)
	if train {
		c.lastX = x
	}
	return out
}

// depthwise reports whether this layer is a depthwise convolution
// (groups == inC == outC), which takes the direct per-plane path instead
// of im2col lowering.
func (c *Conv2D) depthwise() bool {
	return c.groups == c.inC && c.outC == c.inC
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

// Backward implements Layer. The forward lowering is recomputed (batched
// im2col is cheaper than caching N column matrices), the per-image output
// gradients are gathered into the same [outCg, N*L] layout, and each
// group then needs exactly two GEMMs: an accumulating A·Bᵀ for dW and an
// Aᵀ·B for the column gradients, which Col2ImBatch scatters straight
// into this group's disjoint slices of dx. Accumulation orders match the
// per-image lowering (batched columns are image-major), so gradients are
// bit-identical to it.
func (c *Conv2D) Backward(grad *tensor.Dense) *tensor.Dense {
	if c.lastX == nil {
		panic(fmt.Sprintf("nn: %s.Backward before Forward(train)", c.name))
	}
	x := c.lastX
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH, outW := c.OutShape(h, w)
	l := outH * outW
	nl := n * l
	inCg := c.inC / c.groups
	outCg := c.outC / c.groups
	patch := inCg * c.kh * c.kw

	dx := c.dxB.get(n, c.inC, h, w)
	xd := x.Data()
	gd := grad.Data()
	dxd := dx.Data()
	wv := c.w.Value.Data()
	wg := c.w.Grad.Data()

	if c.depthwise() {
		tensor.DepthwiseBackward(xd, gd, n, c.inC, h, w, wv, c.kh, c.kw, c.stride, c.pad, c.workers, wg, dxd)
		c.accumBiasGrad(gd, n, l)
		c.lastX = nil
		if c.skipDX {
			return nil
		}
		return dx
	}

	c.cols = growF(c.cols, patch*nl)
	c.dcols = growF(c.dcols, patch*nl)
	c.gbuf = growF(c.gbuf, outCg*nl)

	for g := 0; g < c.groups; g++ {
		tensor.Im2ColBatch(xd[g*inCg*h*w:], c.inC*h*w, n, inCg, h, w, c.kh, c.kw, c.stride, c.pad, c.cols)
		for ch := 0; ch < outCg; ch++ {
			grow := c.gbuf[ch*nl : (ch+1)*nl]
			oc := g*outCg + ch
			for i := 0; i < n; i++ {
				copy(grow[i*l:(i+1)*l], gd[(i*c.outC+oc)*l:(i*c.outC+oc+1)*l])
			}
		}

		// dW[g] += gbuf · colsᵀ, both operands already patch-major.
		tensor.GemmTBAcc(wg[g*outCg*patch:(g+1)*outCg*patch], c.gbuf, c.cols, outCg, patch, nl, c.workers)
		if c.skipDX {
			continue
		}

		// dcols = W[g]ᵀ · gbuf, then scatter into dx (Col2ImBatch zeroes
		// each image region of this group before accumulating).
		tensor.GemmTA(c.dcols, wv[g*outCg*patch:(g+1)*outCg*patch], c.gbuf, patch, nl, outCg, c.workers)
		tensor.Col2ImBatch(c.dcols, c.inC*h*w, n, inCg, h, w, c.kh, c.kw, c.stride, c.pad, dxd[g*inCg*h*w:])
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
