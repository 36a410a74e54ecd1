package nn

import (
	"math"
	"testing"

	"fedms/internal/randx"
	"fedms/internal/tensor"
)

// TestInputLayerMarking: NewNetwork marks the first parametric leaf,
// reached through Sequentials past parameter-free layers, and only when
// it is a Dense or Conv2D.
func TestInputLayerMarking(t *testing.T) {
	r := randx.New(1)
	flatDense := NewDense("fc", 12, 4, r)
	NewNetwork(NewSequential("s",
		NewSequential("inner", NewFlatten("flat"), NewReLU("relu")),
		NewSequential("inner2", flatDense, NewReLU("relu2")),
	), SoftmaxCrossEntropy{})
	if !flatDense.skipDX {
		t.Fatal("first Dense past parameter-free layers not marked")
	}

	cnn := NewSmallCNN(SmallCNNConfig{NumClasses: 3, InChannels: 2, Resolution: 4, Seed: 1})
	layers := cnn.body.(*Sequential).layers
	if !layers[0].(*Conv2D).skipDX || layers[4].(*Conv2D).skipDX || layers[9].(*Dense).skipDX {
		t.Fatal("SmallCNN: want conv1 marked and no other layer")
	}

	second := NewDense("fc2", 4, 2, r)
	NewNetwork(NewSequential("bn_first", NewBatchNorm2D("bn", 3), second), SoftmaxCrossEntropy{})
	if second.skipDX {
		t.Fatal("a Dense behind a BatchNorm2D marked")
	}
	inner := NewDense("res_fc", 4, 4, r)
	NewNetwork(NewSequential("res_first", NewResidual("res", inner), NewDense("after", 4, 2, r)), SoftmaxCrossEntropy{})
	if inner.skipDX {
		t.Fatal("a Dense inside a Residual marked")
	}
}

// TestMarkedNetworkTrainsBitIdentically: skipping the input gradient
// changes no parameter bit. A marked MLP and SmallCNN take k SGD steps
// next to the same networks with the mark cleared, on the same batches.
func TestMarkedNetworkTrainsBitIdentically(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Network
		shape []int
	}{
		{"mlp", func() *Network {
			return NewMLP(MLPConfig{In: 32, Hidden: []int{128, 64}, NumClasses: 10, Seed: 3})
		}, []int{32, 32}},
		{"smallcnn", func() *Network {
			return NewSmallCNN(SmallCNNConfig{NumClasses: 10, InChannels: 3, Resolution: 8, Seed: 3})
		}, []int{8, 3, 8, 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			marked, unmarked := tc.build(), tc.build()
			clearInputMarks(unmarked.body)
			r := randx.New(9)
			x := tensor.New(tc.shape...)
			labels := make([]int, tc.shape[0])
			optM, optU := NewSGD(0.9), NewSGD(0.9)
			for step := 0; step < 5; step++ {
				x.FillNormal(r, 0, 1)
				for i := range labels {
					labels[i] = r.IntN(10)
				}
				for _, run := range []struct {
					net *Network
					opt *SGD
				}{{marked, optM}, {unmarked, optU}} {
					run.net.ZeroGrads()
					run.net.TrainBatch(x, labels)
					run.opt.Step(run.net.Params(), 0.05)
				}
			}
			pm, pu := marked.FlatParams(), unmarked.FlatParams()
			for i := range pm {
				if math.Float64bits(pm[i]) != math.Float64bits(pu[i]) {
					t.Fatalf("param %d: marked %v, unmarked %v", i, pm[i], pu[i])
				}
			}
		})
	}
}

// clearInputMarks undoes markInputLayer on every Dense and Conv2D.
func clearInputMarks(l Layer) {
	switch v := l.(type) {
	case *Sequential:
		for _, inner := range v.layers {
			clearInputMarks(inner)
		}
	case *Dense:
		v.skipDX = false
	case *Conv2D:
		v.skipDX = false
	}
}
