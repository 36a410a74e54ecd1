package node

import (
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/core"
	"fedms/internal/nn"
)

// testOracle is the deterministic pure loss stand-in shared by both
// runtimes in the parity tests: squared parameter norm. Bit-parity
// only needs the engine and the distributed processes to evaluate the
// same function; the CLI-level holdout oracle is itself derived purely
// from Seed, so this models the real deployment exactly.
func testOracle(m []float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v * v
	}
	return s
}

// runDistributedLoss mirrors runDistributed but wires a loss oracle
// into every PS and client, and lets the caller pick the server rule.
func runDistributedLoss(t *testing.T, learners []core.Learner, p, rounds int,
	byzantine map[int]attack.Attack, serverRule, filter aggregate.Rule,
	oracle aggregate.LossEval, seed uint64) [][]float64 {
	t.Helper()
	cfg := testSpec(len(learners), p, rounds, filter, seed)
	cfg.ServerFilter, cfg.LossOracle = serverRule, oracle
	for id, atk := range byzantine {
		cfg.ByzantineIDs, cfg.Attack = append(cfg.ByzantineIDs, id), atk
	}
	params, _, _ := launch(t, cfg, learners, nil, nil)
	return params
}

// runEngineLoss mirrors runEngine with the oracle and server rule set.
func runEngineLoss(t *testing.T, learners []core.Learner, p, rounds int,
	byzIDs []int, atk attack.Attack, serverRule, filter aggregate.Rule,
	oracle aggregate.LossEval, seed uint64) [][]float64 {
	t.Helper()
	cfg := core.Config{
		Clients:      len(learners),
		Servers:      p,
		ByzantineIDs: byzIDs,
		Rounds:       rounds,
		LocalSteps:   2,
		Attack:       atk,
		Filter:       filter,
		ServerFilter: serverRule,
		LossOracle:   oracle,
		Schedule:     nn.ConstantLR(0.3),
		Seed:         seed,
		EvalEvery:    -1,
	}
	eng, err := core.NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	params := make([][]float64, len(learners))
	for i, l := range learners {
		params[i] = l.Params()
	}
	return params
}

// TestDistributedMatchesEngineLossFilter: engine/distributed bit-parity
// with FedGreed as the client filter behind the shared oracle — the
// PR-7 extension of the existing parity suite to the oracle dispatch
// path.
func TestDistributedMatchesEngineLossFilter(t *testing.T) {
	const k, p, rounds, seed = 6, 3, 4, 36
	dist := runDistributedLoss(t, makeLearners(t, k, seed), p, rounds,
		nil, nil, aggregate.FedGreed{}, testOracle, seed)
	eng := runEngineLoss(t, makeLearners(t, k, seed), p, rounds,
		nil, attack.None{}, nil, aggregate.FedGreed{}, testOracle, seed)
	assertSameParams(t, dist, eng, "fedgreed filter with oracle")
}

// TestDistributedMatchesEngineLossServerRule: parity when the benign
// servers themselves aggregate with a loss rule, under an attacking
// server — the PS-side oracle dispatch.
func TestDistributedMatchesEngineLossServerRule(t *testing.T) {
	const k, p, rounds, seed = 5, 5, 3, 37
	byzID := 1
	atk := attack.Noise{Sigma: 1}
	dist := runDistributedLoss(t, makeLearners(t, k, seed), p, rounds,
		map[int]attack.Attack{byzID: atk}, aggregate.LossCluster{}, aggregate.TrimmedMean{Beta: 0.2},
		testOracle, seed)
	eng := runEngineLoss(t, makeLearners(t, k, seed), p, rounds,
		[]int{byzID}, atk, aggregate.LossCluster{}, aggregate.TrimmedMean{Beta: 0.2},
		testOracle, seed)
	assertSameParams(t, dist, eng, "losscluster server rule with oracle")
}

// TestDistributedLossFilterWithoutOracle: a loss-rule filter with no
// oracle must still run both runtimes to the same fallback trajectory
// — the degraded mode a holdout-less deployment lands in.
func TestDistributedLossFilterWithoutOracle(t *testing.T) {
	const k, p, rounds, seed = 5, 3, 3, 38
	dist := runDistributedLoss(t, makeLearners(t, k, seed), p, rounds,
		nil, nil, aggregate.LossCluster{}, nil, seed)
	eng := runEngineLoss(t, makeLearners(t, k, seed), p, rounds,
		nil, attack.None{}, nil, aggregate.LossCluster{}, nil, seed)
	assertSameParams(t, dist, eng, "losscluster filter, no oracle")
}
