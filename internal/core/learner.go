// Package core implements the Fed-MS algorithm (Algorithm 1 of the
// paper): synchronized federated rounds over K clients and P parameter
// servers of which B are Byzantine, with sparse uploading and the
// client-side trimmed-mean model filter.
//
// The engine is model-agnostic: clients hold Learners, which are either
// neural networks (NNLearner, wrapping internal/nn) or the synthetic
// strongly convex objectives of internal/theory used to validate the
// convergence analysis.
package core

import (
	"fedms/internal/data"
	"fedms/internal/nn"
	"fedms/internal/randx"
)

// Learner is the trainable state held by one client.
//
// Implementations must be deterministic given their construction seed:
// the engine relies on this for reproducible experiments.
type Learner interface {
	// NumParams returns the flat parameter dimension d.
	NumParams() int
	// Params returns a copy of the current flat parameter vector.
	Params() []float64
	// SetParams loads a flat parameter vector. It copies flat and must
	// neither retain nor modify it: the engine installs one filtered
	// vector into every client that received the same models, and
	// reuses its buffer the next round.
	SetParams(flat []float64)
	// LocalTrain runs `steps` mini-batch SGD iterations. globalStep is
	// the index of the first iteration in the global schedule (the
	// paper's t·E + i indexing, which the learning-rate schedule
	// consumes). It returns the average training loss over the steps.
	LocalTrain(steps, globalStep int, sched nn.Schedule) float64
	// Evaluate returns test loss and top-1 accuracy.
	Evaluate() (loss, acc float64)
}

// NNLearner adapts an nn.Network plus a local dataset to the Learner
// interface. Each Fed-MS client owns one.
type NNLearner struct {
	net     *nn.Network
	opt     *nn.SGD
	batcher *data.Batcher
	test    *data.Dataset
	evalBS  int
}

// NNLearnerConfig configures NewNNLearner.
type NNLearnerConfig struct {
	// Net is the client's model instance (not shared with other
	// clients).
	Net *nn.Network
	// Train is the client's local shard D_k.
	Train *data.Dataset
	// Test is the (shared) test set used by Evaluate.
	Test *data.Dataset
	// BatchSize is the mini-batch size for local SGD.
	BatchSize int
	// Momentum configures the local optimizer; the paper's analysis
	// assumes plain SGD (zero).
	Momentum float64
	// Seed derives the mini-batch sampling stream.
	Seed uint64
}

// NewNNLearner constructs a client learner.
func NewNNLearner(cfg NNLearnerConfig) *NNLearner {
	return &NNLearner{
		net:     cfg.Net,
		opt:     nn.NewSGD(cfg.Momentum),
		batcher: data.NewBatcher(cfg.Train, cfg.BatchSize, randx.New(cfg.Seed)),
		test:    cfg.Test,
		evalBS:  256,
	}
}

// Net exposes the wrapped network (used by examples for prediction).
func (l *NNLearner) Net() *nn.Network { return l.net }

// SetWorkers bounds the goroutine fan-out of this learner's training
// kernels (Dense/Conv2D GEMMs). Training results are bit-identical for
// any worker count. NewEngine calls this for learners that have not set
// it explicitly, giving each client an equal slice of cfg.Workers.
func (l *NNLearner) SetWorkers(w int) { l.net.SetWorkers(w) }

// Workers reports the training kernel budget (0 when unset).
func (l *NNLearner) Workers() int { return l.net.Workers() }

// NumParams implements Learner.
func (l *NNLearner) NumParams() int { return l.net.NumParams() }

// Params implements Learner.
func (l *NNLearner) Params() []float64 { return l.net.FlatParams() }

// SetParams implements Learner.
func (l *NNLearner) SetParams(flat []float64) { l.net.SetFlatParams(flat) }

// LocalTrain implements Learner: E steps of mini-batch SGD, as in lines
// 8-10 of Algorithm 1. The optimizer is reset first: the model the
// filter installed restarts local training, so no momentum carries over
// from the previous round.
func (l *NNLearner) LocalTrain(steps, globalStep int, sched nn.Schedule) float64 {
	l.opt.Reset()
	total := 0.0
	for i := 0; i < steps; i++ {
		x, y := l.batcher.Next()
		l.net.ZeroGrads()
		total += l.net.TrainBatch(x, y)
		l.opt.Step(l.net.Params(), sched.LR(globalStep+i))
	}
	if steps == 0 {
		return 0
	}
	return total / float64(steps)
}

// Evaluate implements Learner: loss and accuracy over the test set,
// evaluated in batches.
func (l *NNLearner) Evaluate() (float64, float64) {
	n := l.test.Len()
	totalLoss, correct := 0.0, 0
	idx := make([]int, 0, l.evalBS)
	for lo := 0; lo < n; lo += l.evalBS {
		hi := lo + l.evalBS
		if hi > n {
			hi = n
		}
		idx = idx[:0]
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		x, y := l.test.Batch(idx)
		loss, c := l.net.EvalBatch(x, y)
		totalLoss += loss * float64(hi-lo)
		correct += c
	}
	return totalLoss / float64(n), float64(correct) / float64(n)
}

// workerLearner is implemented by learners whose local training can fan
// out over a bounded goroutine budget.
type workerLearner interface {
	SetWorkers(int)
	Workers() int
}

var (
	_ Learner       = (*NNLearner)(nil)
	_ workerLearner = (*NNLearner)(nil)
)
