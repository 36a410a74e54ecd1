package core

import (
	"testing"

	"fedms/internal/data"
	"fedms/internal/nn"
)

// TestNNLearnerResetsMomentumEachRound: with momentum on, the first step
// of a round is plain w −= lr·g on the model the filter installed — no
// velocity carries over from the previous round. A momentum-free twin
// drawing the same batches from the same installed model must land on
// the same parameters after that step.
func TestNNLearnerResetsMomentumEachRound(t *testing.T) {
	const features = 16
	ds := data.Blobs(data.BlobsConfig{Samples: 400, Features: features, NumClasses: 4, Seed: 3})
	train, test := ds.Split(0.8)
	learner := func(momentum float64) *NNLearner {
		return NewNNLearner(NNLearnerConfig{
			Net: nn.NewMLP(nn.MLPConfig{In: features, NumClasses: 4, Seed: 3}), Train: train, Test: test,
			BatchSize: 16, Momentum: momentum, Seed: 5,
		})
	}
	heavy, plain := learner(0.9), learner(0)
	lr := nn.ConstantLR(0.3)
	heavy.LocalTrain(3, 0, lr)
	plain.LocalTrain(3, 0, lr)

	installed := heavy.Params()
	heavy.SetParams(installed)
	plain.SetParams(installed)
	heavy.LocalTrain(1, 3, lr)
	plain.LocalTrain(1, 3, lr)
	got, want := heavy.Params(), plain.Params()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d after round 2's first step = %v, want plain SGD's %v", i, got[i], want[i])
		}
	}
}
