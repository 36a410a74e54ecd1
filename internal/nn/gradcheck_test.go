package nn

import (
	"math"
	"testing"

	"fedms/internal/randx"
	"fedms/internal/tensor"
)

// lossOf runs a forward pass through layer + cross-entropy and returns
// the scalar loss. Used as the objective for finite differencing.
func lossOf(layer Layer, x *tensor.Dense, labels []int, train bool) float64 {
	out := layer.Forward(x, train)
	n := out.Dim(0)
	out = out.Reshape(n, out.Len()/n)
	return SoftmaxCrossEntropy{}.Forward(out, labels, nil)
}

// analyticGrads runs forward+backward once and returns (input grad,
// per-param grads as flat vector).
func analyticGrads(layer Layer, x *tensor.Dense, labels []int) (*tensor.Dense, []float64) {
	ZeroGrads(layer.Params())
	out := layer.Forward(x, true)
	n := out.Dim(0)
	flatOut := out.Reshape(n, out.Len()/n)
	g := tensor.New(flatOut.Shape()...)
	SoftmaxCrossEntropy{}.Forward(flatOut, labels, g)
	dx := layer.Backward(g.Reshape(out.Shape()...))
	var pg []float64
	for _, p := range layer.Params() {
		pg = append(pg, p.Grad.Data()...)
	}
	return dx, pg
}

// checkGradients compares analytic gradients (input and parameters)
// against central finite differences.
func checkGradients(t *testing.T, layer Layer, x *tensor.Dense, labels []int, tol float64) {
	t.Helper()
	dx, pg := analyticGrads(layer, x, labels)

	const eps = 1e-5
	// Input gradient.
	xd := x.Data()
	for i := 0; i < len(xd); i += 1 + len(xd)/17 { // sample indices for speed
		orig := xd[i]
		xd[i] = orig + eps
		up := lossOf(layer, x, labels, true)
		xd[i] = orig - eps
		down := lossOf(layer, x, labels, true)
		xd[i] = orig
		want := (up - down) / (2 * eps)
		got := dx.Data()[i]
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("%s: input grad[%d] = %v, finite diff %v", layer.Name(), i, got, want)
		}
	}
	// Parameter gradients.
	off := 0
	for _, p := range layer.Params() {
		pd := p.Value.Data()
		for i := 0; i < len(pd); i += 1 + len(pd)/17 {
			if !p.Trainable {
				continue
			}
			orig := pd[i]
			pd[i] = orig + eps
			up := lossOf(layer, x, labels, true)
			pd[i] = orig - eps
			down := lossOf(layer, x, labels, true)
			pd[i] = orig
			want := (up - down) / (2 * eps)
			got := pg[off+i]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s: param %s grad[%d] = %v, finite diff %v", layer.Name(), p.Name, i, got, want)
			}
		}
		off += p.Value.Len()
	}
}

func randInput(r *randx.RNG, shape ...int) *tensor.Dense {
	x := tensor.New(shape...)
	x.FillNormal(r, 0, 1)
	return x
}

func randLabels(r *randx.RNG, n, classes int) []int {
	ls := make([]int, n)
	for i := range ls {
		ls[i] = r.IntN(classes)
	}
	return ls
}

func TestDenseGradients(t *testing.T) {
	r := randx.New(1)
	layer := NewDense("fc", 7, 4, r)
	checkGradients(t, layer, randInput(r, 3, 7), randLabels(r, 3, 4), 1e-4)
}

func TestConv2DGradients(t *testing.T) {
	r := randx.New(2)
	layer := NewConv2D("conv", 2, 3, 3, ConvOpts{Stride: 1, Pad: 1}, r)
	checkGradients(t, layer, randInput(r, 2, 2, 5, 5), randLabels(r, 2, 75), 1e-4)
}

func TestConv2DStridedNoBiasGradients(t *testing.T) {
	r := randx.New(3)
	layer := NewConv2D("conv", 3, 4, 3, ConvOpts{Stride: 2, Pad: 1, NoBias: true}, r)
	checkGradients(t, layer, randInput(r, 2, 3, 6, 6), randLabels(r, 2, 36), 1e-4)
}

func TestDepthwiseConvGradients(t *testing.T) {
	r := randx.New(4)
	layer := NewDepthwiseConv2D("dw", 3, 3, 1, 1, r)
	checkGradients(t, layer, randInput(r, 2, 3, 4, 4), randLabels(r, 2, 48), 1e-4)
}

func TestBatchNormGradients(t *testing.T) {
	r := randx.New(6)
	layer := NewBatchNorm2D("bn", 3)
	// Non-unit gamma/beta to exercise the affine part.
	layer.gamma.Value.FillUniform(r, 0.5, 1.5)
	layer.beta.Value.FillUniform(r, -0.5, 0.5)
	checkGradients(t, layer, randInput(r, 4, 3, 3, 3), randLabels(r, 4, 27), 1e-3)
}

func TestReLUGradients(t *testing.T) {
	r := randx.New(7)
	layer := NewReLU("relu")
	x := randInput(r, 3, 10)
	// Keep activations away from the kink at 0 for stable FD.
	x.Apply(func(v float64) float64 {
		if math.Abs(v) < 0.1 {
			return v + 0.2
		}
		return v
	})
	checkGradients(t, layer, x, randLabels(r, 3, 10), 1e-4)
}

func TestReLU6Gradients(t *testing.T) {
	r := randx.New(8)
	layer := NewReLU6("relu6")
	x := randInput(r, 3, 10)
	x.Scale(4) // push some activations past the cap at 6
	x.Apply(func(v float64) float64 {
		if math.Abs(v) < 0.1 || math.Abs(v-6) < 0.1 {
			return v + 0.3
		}
		return v
	})
	checkGradients(t, layer, x, randLabels(r, 3, 10), 1e-4)
}

func TestMaxPoolGradients(t *testing.T) {
	r := randx.New(9)
	layer := NewMaxPool2D("pool", 2, 2)
	checkGradients(t, layer, randInput(r, 2, 2, 4, 4), randLabels(r, 2, 8), 1e-4)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	r := randx.New(10)
	layer := NewGlobalAvgPool2D("gap")
	checkGradients(t, layer, randInput(r, 3, 4, 3, 3), randLabels(r, 3, 4), 1e-4)
}

func TestSequentialGradients(t *testing.T) {
	r := randx.New(11)
	layer := NewSequential("net",
		NewDense("fc1", 6, 8, r),
		NewReLU("relu"),
		NewDense("fc2", 8, 5, r),
	)
	checkGradients(t, layer, randInput(r, 4, 6), randLabels(r, 4, 5), 1e-4)
}

func TestResidualGradients(t *testing.T) {
	r := randx.New(12)
	inner := NewSequential("inner",
		NewDense("fc1", 6, 6, r),
	)
	layer := NewResidual("res", inner)
	checkGradients(t, layer, randInput(r, 3, 6), randLabels(r, 3, 6), 1e-4)
}

func TestInvertedResidualGradients(t *testing.T) {
	r := randx.New(13)
	layer := NewInvertedResidual("ir", 4, 4, 1, 2, r)
	checkGradients(t, layer, randInput(r, 2, 4, 4, 4), randLabels(r, 2, 64), 1e-3)
}

func TestInvertedResidualStridedGradients(t *testing.T) {
	r := randx.New(14)
	layer := NewInvertedResidual("ir", 4, 6, 2, 2, r) // no skip: stride 2
	checkGradients(t, layer, randInput(r, 2, 4, 4, 4), randLabels(r, 2, 24), 1e-3)
}

func TestFlattenLayerGradients(t *testing.T) {
	r := randx.New(15)
	layer := NewSequential("net",
		NewFlatten("flat"),
		NewDense("fc", 12, 3, r),
	)
	checkGradients(t, layer, randInput(r, 2, 3, 2, 2), randLabels(r, 2, 3), 1e-4)
}
