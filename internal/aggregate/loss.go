package aggregate

import (
	"math"
	"sort"

	"fedms/internal/tensor"
)

// LossEval scores a candidate model vector on a server-held holdout
// split and returns its loss. The oracle contract (DESIGN.md §Loss
// oracle): an eval is a deterministic pure function of the model —
// same bits in, same loss out — it never mutates the model or any
// training state, and every call is counted in obs at the dispatch
// site. Implementations must return a finite value for finite inputs;
// NaN is tolerated defensively (ordered after every real loss) but is
// a bug in the oracle.
type LossEval func(model []float64) float64

// LossRule is a Rule that can exploit a holdout-loss oracle. The
// plain Aggregate method is the geometry-only fallback Run takes when
// no oracle is configured: both paths must satisfy the full Rule contract, so
// a LossRule is always safe to run oracle-less.
type LossRule interface {
	Rule
	// AggregateWithLoss returns a fresh vector; it must not retain or
	// mutate the inputs, and must treat eval as read-only (calls may
	// be counted by the dispatcher). A nil eval must behave exactly
	// like Aggregate.
	AggregateWithLoss(vecs [][]float64, eval LossEval) []float64
}

// FedGreed is the greedy lowest-holdout-loss subset average of
// Kritharakis et al. (arXiv:2508.18060): sort the candidates by
// holdout loss, grow the prefix one candidate at a time, score each
// prefix average on the holdout split, and return the prefix average
// with the lowest loss. Byzantine uploads that raise the holdout loss
// are excluded no matter how geometrically inconspicuous they are —
// the property that defeats within-spread attacks (ALIE, IPM) which
// slip past per-coordinate trimming. Costs 2n oracle evals for n
// inputs; degrades gracefully to any n ≥ 1.
type FedGreed struct {
	// Fallback is the geometry-only rule used when no oracle is
	// configured (nil = CoordinateMedian). It keeps FedGreed safe to
	// select on runtimes without a holdout split.
	Fallback Rule
}

// Name implements Rule.
func (FedGreed) Name() string { return "fedgreed" }

func (g FedGreed) fallback() Rule {
	if g.Fallback != nil {
		return g.Fallback
	}
	return CoordinateMedian{}
}

// Aggregate implements Rule: the geometry-only fallback path.
func (g FedGreed) Aggregate(vecs [][]float64) []float64 {
	checkInputs(vecs, "fedgreed")
	return g.fallback().Aggregate(vecs)
}

// AggregateWithLoss implements LossRule. Candidates are ordered by
// (loss, lexLess) — the same permutation-invariant tie-break as the
// selection rules — so prefix sums, and therefore the output bits,
// do not depend on input order. Ties between prefix scores keep the
// smaller prefix.
func (g FedGreed) AggregateWithLoss(vecs [][]float64, eval LossEval) []float64 {
	if eval == nil {
		return g.Aggregate(vecs)
	}
	d := checkInputs(vecs, "fedgreed")
	n := len(vecs)
	order, _ := lossOrder(vecs, eval)
	sum := make([]float64, d)
	avg := make([]float64, d)
	best := make([]float64, d)
	bestLoss := math.Inf(1)
	for k := 1; k <= n; k++ {
		tensor.VecAdd(sum, vecs[order[k-1]])
		copy(avg, sum)
		tensor.VecScale(avg, 1/float64(k))
		if l := eval(avg); l < bestLoss {
			bestLoss = l
			copy(best, avg)
		}
	}
	return best
}

// LossCluster is the two-cluster holdout-loss split of Kritharakis et
// al. (arXiv:2508.12672): score every candidate on the holdout split,
// cut the 1-D loss sequence at the split minimizing within-cluster
// squared error (exact 2-means on a sorted line), and average the
// lower-loss cluster. Unlike FedGreed it re-scores nothing — n oracle
// evals for n inputs — trading some selectivity for half the oracle
// cost. Degrades gracefully to any n ≥ 1; with one input or all-equal
// losses there is nothing to split and it averages everything.
type LossCluster struct {
	// Fallback is the geometry-only rule used when no oracle is
	// configured (nil = CoordinateMedian).
	Fallback Rule
}

// Name implements Rule.
func (LossCluster) Name() string { return "losscluster" }

func (c LossCluster) fallback() Rule {
	if c.Fallback != nil {
		return c.Fallback
	}
	return CoordinateMedian{}
}

// Aggregate implements Rule: the geometry-only fallback path.
func (c LossCluster) Aggregate(vecs [][]float64) []float64 {
	checkInputs(vecs, "losscluster")
	return c.fallback().Aggregate(vecs)
}

// AggregateWithLoss implements LossRule.
func (c LossCluster) AggregateWithLoss(vecs [][]float64, eval LossEval) []float64 {
	if eval == nil {
		return c.Aggregate(vecs)
	}
	d := checkInputs(vecs, "losscluster")
	n := len(vecs)
	if n == 1 {
		out := make([]float64, d)
		copy(out, vecs[0])
		return out
	}
	order, losses := lossOrder(vecs, eval)
	t := n
	if losses[0] != losses[n-1] {
		t = bestLossSplit(losses)
	}
	out := make([]float64, d)
	for _, idx := range order[:t] {
		tensor.VecAdd(out, vecs[idx])
	}
	tensor.VecScale(out, 1/float64(t))
	return out
}

// lossOrder evaluates every candidate once and returns the indices
// ordered by ascending loss with the lexLess content tie-break, plus
// the losses in that order. NaN losses sort after every real loss so
// a buggy oracle cannot make the ordering depend on input order.
func lossOrder(vecs [][]float64, eval LossEval) (order []int, losses []float64) {
	n := len(vecs)
	raw := make([]float64, n)
	for i := range vecs {
		l := eval(vecs[i])
		if math.IsNaN(l) {
			l = math.Inf(1)
		}
		raw[i] = l
	}
	order = make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := raw[order[a]], raw[order[b]]
		if la != lb {
			return la < lb
		}
		return lexLess(vecs[order[a]], vecs[order[b]])
	})
	losses = make([]float64, n)
	for i, idx := range order {
		losses[i] = raw[idx]
	}
	return order, losses
}

// bestLossSplit returns the cut t ∈ [1, n-1] minimizing the summed
// within-cluster squared error of the ascending loss sequence —
// exact two-means on a line via prefix sums. Ties keep the first
// (smallest) cut so the benign cluster is never grown ambiguously.
func bestLossSplit(losses []float64) int {
	n := len(losses)
	pre := make([]float64, n+1)  // prefix sums
	pre2 := make([]float64, n+1) // prefix sums of squares
	for i, l := range losses {
		pre[i+1] = pre[i] + l
		pre2[i+1] = pre2[i] + l*l
	}
	sse := func(lo, hi int) float64 { // within-cluster SSE of losses[lo:hi]
		m := float64(hi - lo)
		s := pre[hi] - pre[lo]
		return (pre2[hi] - pre2[lo]) - s*s/m
	}
	best, bestSSE := 1, math.Inf(1)
	for t := 1; t < n; t++ {
		if v := sse(0, t) + sse(t, n); v < bestSSE {
			best, bestSSE = t, v
		}
	}
	return best
}

var (
	_ Rule     = FedGreed{}
	_ Rule     = LossCluster{}
	_ LossRule = FedGreed{}
	_ LossRule = LossCluster{}
)
