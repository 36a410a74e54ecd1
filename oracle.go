package fedms

import (
	"fmt"
	"sync"

	"fedms/internal/aggregate"
)

// DefaultHoldoutSamples is the holdout-split size backing the loss
// oracle when Config.HoldoutSamples is zero. Small on purpose: the
// oracle runs up to 2(P+1) forward passes per aggregation under
// FedGreed, and a few hundred samples already rank a poisoned average
// far above a benign one.
const DefaultHoldoutSamples = 256

// NewHoldoutOracle builds the holdout-loss oracle for cfg: candidate
// models are scored by cross-entropy on the first HoldoutSamples
// examples of the test split, using a dedicated model instance. The
// dataset, split and model all derive from cfg.Seed alone, so every
// process that calls this with the same Config — the in-process
// engine, each distributed PS, each client — holds a bit-identical
// oracle, which is what keeps engine/distributed parity through the
// loss-rule path.
//
// Contract (DESIGN.md): the returned eval is a deterministic pure
// function of the model vector, never mutates the model or any
// training state (it loads the vector into its own network), is safe
// for concurrent use (internally serialized), and every call is
// counted in obs by the dispatch sites.
func NewHoldoutOracle(cfg Config) (LossEval, error) {
	return (&split{cfg: withDefaults(cfg)}).oracle()
}

// oracle is the shared implementation, over the test split BuildEngine
// also hands its learners.
func (s *split) oracle() (LossEval, error) {
	if err := s.build(); err != nil {
		return nil, err
	}
	test, cfg := s.test, s.cfg
	n := cfg.HoldoutSamples
	if n <= 0 {
		n = DefaultHoldoutSamples
	}
	if t := test.Len(); n > t {
		n = t
	}
	if n == 0 {
		return nil, fmt.Errorf("fedms: holdout oracle needs a non-empty test split")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	x, y := test.Batch(idx)
	net, err := buildModel(cfg.Model, cfg.Dataset, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if net.NumParams() == 0 {
		return nil, fmt.Errorf("fedms: holdout oracle model has no parameters")
	}
	var mu sync.Mutex
	return func(model []float64) float64 {
		mu.Lock()
		defer mu.Unlock()
		net.SetFlatParams(model)
		loss, _ := net.EvalBatch(x, y)
		return loss
	}, nil
}

// isLossRule reports whether r routes through a loss oracle.
func isLossRule(r Rule) bool {
	_, ok := r.(aggregate.LossRule)
	return ok
}
