package nn

import (
	"math"
	"testing"

	"fedms/internal/randx"
	"fedms/internal/tensor"
)

// refGroups is the number of channel groups the reference lowers a
// layer in: one for a standard convolution, one per channel for a
// depthwise one.
func refGroups(c *Conv2D) int {
	if c.depthwise {
		return c.inC
	}
	return 1
}

// refConvForward is the per-image reference lowering the batched Conv2D
// paths (the whole-batch Im2ColBatch GEMM, and the direct depthwise
// kernel) must agree with: one single-image lowering and one naive
// matrix multiply per (image, group).
func refConvForward(c *Conv2D, x *tensor.Dense) *tensor.Dense {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH, outW := c.OutShape(h, w)
	l := outH * outW
	groups := refGroups(c)
	inCg := c.inC / groups
	outCg := c.outC / groups
	patch := inCg * c.kh * c.kw

	out := tensor.New(n, c.outC, outH, outW)
	od := out.Data()
	xd := x.Data()
	wv := c.w.Value.Data()
	cols := make([]float64, patch*l)
	for i := 0; i < n; i++ {
		img := xd[i*c.inC*h*w : (i+1)*c.inC*h*w]
		for g := 0; g < groups; g++ {
			tensor.Im2ColBatch(img[g*inCg*h*w:(g+1)*inCg*h*w], 1, inCg, h, w, c.kh, c.kw, c.stride, c.pad, cols)
			for oc := 0; oc < outCg; oc++ {
				wRow := wv[(g*outCg+oc)*patch : (g*outCg+oc+1)*patch]
				dst := od[(i*c.outC+g*outCg+oc)*l : (i*c.outC+g*outCg+oc+1)*l]
				for j := 0; j < l; j++ {
					s := 0.0
					for p := 0; p < patch; p++ {
						s += wRow[p] * cols[p*l+j]
					}
					dst[j] = s
				}
			}
		}
	}
	if c.useBias {
		bias := c.b.Value.Data()
		for i := 0; i < n; i++ {
			for ch := 0; ch < c.outC; ch++ {
				plane := od[(i*c.outC+ch)*l : (i*c.outC+ch+1)*l]
				for j := range plane {
					plane[j] += bias[ch]
				}
			}
		}
	}
	return out
}

// refConvBackward returns (dx, dW, db) of the reference lowering.
func refConvBackward(c *Conv2D, x, grad *tensor.Dense) (*tensor.Dense, []float64, []float64) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH, outW := c.OutShape(h, w)
	l := outH * outW
	groups := refGroups(c)
	inCg := c.inC / groups
	outCg := c.outC / groups
	patch := inCg * c.kh * c.kw

	dx := tensor.New(n, c.inC, h, w)
	dW := make([]float64, c.outC*patch)
	var db []float64
	if c.useBias {
		db = make([]float64, c.outC)
	}
	xd := x.Data()
	gd := grad.Data()
	dxd := dx.Data()
	wv := c.w.Value.Data()
	cols := make([]float64, patch*l)
	dcols := make([]float64, patch*l)
	dimg := make([]float64, inCg*h*w)
	for i := 0; i < n; i++ {
		img := xd[i*c.inC*h*w : (i+1)*c.inC*h*w]
		for g := 0; g < groups; g++ {
			tensor.Im2ColBatch(img[g*inCg*h*w:(g+1)*inCg*h*w], 1, inCg, h, w, c.kh, c.kw, c.stride, c.pad, cols)
			for p := range dcols {
				dcols[p] = 0
			}
			for oc := 0; oc < outCg; oc++ {
				gRow := gd[(i*c.outC+g*outCg+oc)*l : (i*c.outC+g*outCg+oc+1)*l]
				wRow := wv[(g*outCg+oc)*patch : (g*outCg+oc+1)*patch]
				dwRow := dW[(g*outCg+oc)*patch : (g*outCg+oc+1)*patch]
				for p := 0; p < patch; p++ {
					s := 0.0
					for j := 0; j < l; j++ {
						s += gRow[j] * cols[p*l+j]
					}
					dwRow[p] += s
					for j := 0; j < l; j++ {
						dcols[p*l+j] += wRow[p] * gRow[j]
					}
				}
			}
			tensor.Col2ImBatch(dcols, 1, inCg, h, w, c.kh, c.kw, c.stride, c.pad, dimg)
			copy(dxd[(i*c.inC+g*inCg)*h*w:(i*c.inC+(g+1)*inCg)*h*w], dimg)
		}
		if c.useBias {
			for ch := 0; ch < c.outC; ch++ {
				plane := gd[(i*c.outC+ch)*l : (i*c.outC+ch+1)*l]
				for _, v := range plane {
					db[ch] += v
				}
			}
		}
	}
	return dx, dW, db
}

// TestConvMatchesPerImageReference: the production Conv2D paths — the
// whole-batch Im2ColBatch lowering with one GEMM, and the direct
// depthwise kernel — must agree with the per-image reference lowering
// to 1e-10 on output, input gradient, and parameter gradients, across
// padded, strided-with-padding, depthwise, and biased configurations,
// at every worker count.
func TestConvMatchesPerImageReference(t *testing.T) {
	const tol = 1e-10
	cases := []struct {
		name  string
		layer func(r *randx.RNG) *Conv2D
		inC   int
	}{
		{"pad", func(r *randx.RNG) *Conv2D {
			return NewConv2D("p", 4, 6, 3, ConvOpts{Pad: 1}, r)
		}, 4},
		{"stride2_pad_nobias", func(r *randx.RNG) *Conv2D {
			return NewConv2D("s", 6, 4, 3, ConvOpts{Stride: 2, Pad: 1, NoBias: true}, r)
		}, 6},
		{"depthwise", func(r *randx.RNG) *Conv2D {
			return NewDepthwiseConv2D("dw", 5, 3, 1, 1, r)
		}, 5},
		{"depthwise_stride2", func(r *randx.RNG) *Conv2D {
			return NewDepthwiseConv2D("dws", 4, 3, 2, 1, r)
		}, 4},
		{"biased_stride2", func(r *randx.RNG) *Conv2D {
			return NewConv2D("b", 3, 5, 3, ConvOpts{Stride: 2, Pad: 1}, r)
		}, 3},
	}
	for _, tc := range cases {
		for _, workers := range []int{0, 1, 4} {
			r := randx.New(31)
			layer := tc.layer(r)
			layer.setWorkers(workers)
			x := randInput(r, 3, tc.inC, 7, 7)
			out := layer.Forward(x, true)
			wantOut := refConvForward(layer, x)
			diffAt(t, tc.name, "out", out.Data(), wantOut.Data(), tol)

			grad := tensor.New(out.Shape()...)
			grad.FillNormal(r, 0, 1)
			ZeroGrads(layer.Params())
			dx := layer.Backward(grad)
			wantDx, wantDW, wantDB := refConvBackward(layer, x, grad)
			diffAt(t, tc.name, "dx", dx.Data(), wantDx.Data(), tol)
			diffAt(t, tc.name, "dW", layer.w.Grad.Data(), wantDW, tol)
			if layer.b != nil {
				diffAt(t, tc.name, "db", layer.b.Grad.Data(), wantDB, tol)
			}
		}
	}
}

func diffAt(t *testing.T, name, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s length %d != reference %d", name, what, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("%s: %s[%d] = %v, reference %v", name, what, i, got[i], want[i])
		}
	}
}
