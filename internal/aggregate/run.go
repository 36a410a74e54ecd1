package aggregate

import (
	"slices"

	"fedms/internal/compress"
)

// Request is one server-side aggregation: the round's admitted member
// set and everything that selects how it is reduced. It is the single
// place the shard / weighted / oracle / fused dispatch lives — the
// engine and the PS, sync and async, all build a Request and call Run.
type Request struct {
	Rule Rule
	// Views are the members' payload views in canonical member order
	// (ascending client, then origin round). All have equal Dim and
	// there is at least one.
	Views []compress.Payload
	// Weights, when non-nil, aligns one positive finite aggregation
	// weight with each view (the async staleness down-weights). nil
	// means every member weighs 1.
	Weights []float64
	// Oracle, when non-nil, routes a LossRule through its holdout-loss
	// path; geometry-only rules ignore it.
	Oracle LossEval
	// Shards > 1 reduces through the coordinate-sharded tree when Rule
	// has a sharded kernel (ShardableRule); other rules, and Shards ≤ 1,
	// take the flat path.
	Shards int
	// Dst, when its capacity suffices, receives the aggregate in place.
	Dst []float64
}

// Result is Run's outcome. Callers must use Out, not Request.Dst.
type Result struct {
	Out []float64
	// Sharded and Fused report which path ran, for the runtimes'
	// sharded / fused / fallback counters: Sharded is the shard tree,
	// Fused a flat payload kernel that never densified its inputs, and
	// neither means densify-first.
	Sharded, Fused bool
	// OracleEvals counts holdout-loss evaluations.
	OracleEvals int
	// PeakBytes is the largest per-shard accumulator footprint (0 on
	// the flat paths).
	PeakBytes int64
}

// Run aggregates q.Views under q.Rule. A member set whose weights are
// all exactly 1 — every sync round, and every async round that admitted
// only fresh uploads — runs the unweighted kernels: the weighted ones
// are bit-identical there by the WeightedRule contract
// (TestWeightedAggregationIdentityAtWeightOne), so the choice is
// invisible in the output and keeps weighted-kernel cost off rounds
// that carry no staleness.
func Run(q Request) Result {
	if !slices.ContainsFunc(q.Weights, func(w float64) bool { return w != 1 }) {
		q.Weights = nil
	}
	return q.run()
}

// run dispatches on the request as given: non-nil Weights always reach
// a weighted kernel, which is how the differential tests pin the
// weight ≡ 1 identity that Run relies on.
func (q Request) run() Result {
	d := checkPayloads(q.Views, q.Rule.Name())
	weighted := q.Weights != nil
	if weighted {
		checkWeights(len(q.Views), q.Weights, q.Rule.Name())
	}
	if tree, ok := newShardTree(q.Rule, d, q.Shards, len(q.Views), weighted); ok {
		for i := range q.Views {
			w := 1.0
			if weighted {
				w = q.Weights[i]
			}
			tree.offer(i, q.Views[i], w)
		}
		return Result{Out: tree.finalize(q.Dst), Sharded: true, PeakBytes: tree.peak.Load()}
	}
	if weighted {
		out, fused := AggregateWeightedPayloads(q.Rule, q.Dst, q.Views, q.Weights)
		return Result{Out: out, Fused: fused}
	}
	if _, ok := q.Rule.(LossRule); ok && q.Oracle != nil {
		// Loss rules score whole candidate models, so the views densify
		// first: a fallback, not a fused aggregation.
		out, evals := AggregateWithOracleInto(q.Rule, q.Dst, densify(q.Views), q.Oracle)
		return Result{Out: out, OracleEvals: evals}
	}
	out, fused := AggregatePayloadsInto(q.Rule, q.Dst, q.Views)
	return Result{Out: out, Fused: fused}
}

// densify reconstructs every view as a dense vector (DensePayload
// wrappers alias, everything else allocates).
func densify(ps []compress.Payload) [][]float64 {
	vecs := make([][]float64, len(ps))
	for i := range ps {
		vecs[i] = ps[i].DenseView()
	}
	return vecs
}
