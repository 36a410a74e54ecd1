package nn

import (
	"testing"

	"fedms/internal/randx"
	"fedms/internal/tensor"
)

// BenchmarkTrainStep times one ZeroGrads → TrainBatch → SGD step, the
// local-SGD hot path each client runs E times per round, on an MLP
// batch, the engine_paper benchmark's blobs MLP and a MobileNet V2
// inverted-residual block, so it can be profiled in isolation
// (go test -bench TrainStep -cpuprofile ...).
func BenchmarkTrainStep(b *testing.B) {
	b.Run("blobs_mlp", func(b *testing.B) {
		net := NewMLP(MLPConfig{In: 32, Hidden: []int{128, 64}, NumClasses: 10, Seed: 1})
		benchTrainStep(b, net, 32, 32, randx.New(13))
	})
	b.Run("mlp", func(b *testing.B) {
		r := randx.New(11)
		net := NewNetwork(
			NewSequential("mlp",
				NewFlatten("flat"),
				NewDense("fc1", 784, 256, r),
				NewReLU("relu1"),
				NewDense("fc2", 256, 128, r),
				NewReLU("relu2"),
				NewDense("fc3", 128, 10, r),
			),
			SoftmaxCrossEntropy{},
		)
		benchTrainStep(b, net, 32, 784, r)
	})
	b.Run("conv_block", func(b *testing.B) {
		r := randx.New(12)
		net := NewNetwork(
			NewSequential("conv_block",
				NewInvertedResidual("ir", 16, 16, 1, 6, r),
				NewGlobalAvgPool2D("gap"),
				NewDense("fc", 16, 10, r),
			),
			SoftmaxCrossEntropy{},
		)
		x := tensor.New(8, 16, 16, 16)
		x.FillNormal(r, 0, 1)
		labels := make([]int, 8)
		for i := range labels {
			labels[i] = r.IntN(10)
		}
		opt := NewSGD(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.ZeroGrads()
			net.TrainBatch(x, labels)
			opt.Step(net.Params(), 0.05)
		}
	})
}

func benchTrainStep(b *testing.B, net *Network, batch, features int, r *randx.RNG) {
	x := tensor.New(batch, features)
	x.FillNormal(r, 0, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = r.IntN(10)
	}
	opt := NewSGD(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		net.TrainBatch(x, labels)
		opt.Step(net.Params(), 0.05)
	}
}
