package aggregate

import (
	"fmt"
	"slices"

	"fedms/internal/compress"
	"fedms/internal/tensor"
)

// Request is one server-side aggregation: the round's admitted member
// set and everything that selects how it is reduced. It is the single
// place the weighted / oracle / fused dispatch lives — the engine and
// the PS, sync and async, all build a Request and call Run.
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
	// Dst, when its capacity suffices, receives the aggregate in place.
	Dst []float64
	// Workers bounds the goroutines of the flat coordinate gather
	// (≤ 1 is serial; the other rules ignore it).
	// The output is bit-identical for every value.
	Workers int
}

// Result is Run's outcome. Callers must use Out, not Request.Dst.
type Result struct {
	Out []float64
	// Fused reports which path ran, for the runtimes' fused / fallback
	// counters: a payload kernel that never densified its inputs, or
	// densify-first.
	Fused bool
	// OracleEvals counts holdout-loss evaluations.
	OracleEvals int
}

// Run aggregates q.Views under q.Rule. A member set whose weights are
// all exactly 1 — every sync round, and every async round that admitted
// only fresh uploads — runs the unweighted kernels: the weighted ones
// are bit-identical there by the coordinateRule contract
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
	d, n := q.check(), len(q.Views)
	cr, ok := q.Rule.(coordinateRule)
	if !ok {
		if q.Weights != nil {
			panic(fmt.Sprintf("aggregate: rule %s has no weighted kernel", q.Rule.Name()))
		}
		if lr, ok := q.Rule.(LossRule); ok && q.Oracle != nil {
			// Loss rules score whole candidate models, so the views
			// densify first: a fallback, not a fused aggregation.
			calls := 0
			counted := func(m []float64) float64 { calls++; return q.Oracle(m) }
			return Result{Out: lr.AggregateWithLoss(densify(q.Views), counted), OracleEvals: calls}
		}
		return Result{Out: q.Rule.Aggregate(densify(q.Views))}
	}
	out := zeroVec(q.Dst, d)
	if _, mean := cr.(Mean); mean && q.Weights == nil {
		// Row by row: the mean kernel's operation order per coordinate
		// (a +0.0 accumulator, one add per member in order, one multiply
		// by 1/n), without gathering columns.
		for i := range q.Views {
			q.Views[i].AddTo(out)
		}
		tensor.VecScale(out, 1/float64(n))
	} else {
		gatherPayloadColumns(q.Views, d, out, cr.kernel(n, q.Weights), q.Workers)
	}
	return Result{Out: out, Fused: true}
}

// check validates the member set and returns its dimension: at least
// one view, equal dims, and one positive finite weight per view when
// Weights is set. The rule's name is formatted only on failure.
func (q Request) check() int {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("aggregate: %s "+format, append([]any{q.Rule.Name()}, args...)...))
	}
	if len(q.Views) == 0 {
		fail("on empty input")
	}
	d := q.Views[0].Dim()
	for i := range q.Views {
		if q.Views[i].Dim() != d {
			fail("input %d has dim %d, want %d", i, q.Views[i].Dim(), d)
		}
	}
	if q.Weights != nil && len(q.Weights) != len(q.Views) {
		fail("got %d weights for %d inputs", len(q.Weights), len(q.Views))
	}
	for i, w := range q.Weights {
		if !(w > 0) || w > 1e300 {
			fail("weight %d = %v, want positive and finite", i, w)
		}
	}
	return d
}

// aggregateDense is a coordinate rule's dense Aggregate: its kernel
// over DensePayload views of vecs.
func aggregateDense(r coordinateRule, vecs [][]float64) []float64 {
	return Run(Request{Rule: r, Views: denseViews(vecs)}).Out
}

// denseViews wraps dense vectors as payload views without copying.
func denseViews(vecs [][]float64) []compress.Payload {
	views := make([]compress.Payload, len(vecs))
	for i, v := range vecs {
		views[i] = compress.DensePayload(v)
	}
	return views
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

// The wrappers below are Run under the entry-point names the benchmark
// module still calls; nothing else in the tree uses them.

// AggregateInto aggregates dense vectors under r, reusing dst when the
// rule writes in place. Callers must use the returned slice.
func AggregateInto(r Rule, dst []float64, vecs [][]float64) []float64 {
	return Run(Request{Rule: r, Views: denseViews(vecs), Dst: dst}).Out
}

// AggregatePayloadsInto aggregates payload views under r, reusing dst
// when the rule writes in place; fused reports a coordinate kernel.
func AggregatePayloadsInto(r Rule, dst []float64, ps []compress.Payload) (out []float64, fused bool) {
	res := Run(Request{Rule: r, Views: ps, Dst: dst})
	return res.Out, res.Fused
}

// AggregatePayloadsWithOracle aggregates payload views under r with
// the holdout-loss oracle eval, counting its calls.
func AggregatePayloadsWithOracle(r Rule, ps []compress.Payload, eval LossEval) (out []float64, fused bool, oracleEvals int) {
	res := Run(Request{Rule: r, Views: ps, Oracle: eval})
	return res.Out, res.Fused, res.OracleEvals
}

// AggregateWeightedPayloads aggregates weighted payload views under r.
func AggregateWeightedPayloads(r Rule, dst []float64, ps []compress.Payload, weights []float64) (out []float64, fused bool) {
	res := Run(Request{Rule: r, Views: ps, Weights: weights, Dst: dst})
	return res.Out, res.Fused
}
