package aggregate

import (
	"fmt"
	"sort"

	"fedms/internal/compress"
	"fedms/internal/tensor"
)

// This file is the weighted side of the rule kernels, built for the
// async scheduler's staleness down-weighting (DESIGN.md §7): each
// admitted upload carries a weight w(s) = 1/(1+s) and the robust rule
// aggregates the weighted set. The contract mirrors the fused and
// sharded tiers' bit-identity discipline:
//
//   - At weight ≡ 1 every weighted kernel is bit-identical to its
//     unweighted rule. The weighted code replicates the unweighted
//     arithmetic exactly — same scan and summation order, same
//     divide-vs-multiply choice per path, same (n, m)-pure path
//     selection — so 1·x = x and exact small-integer weight sums make
//     the identity hold at the float64-bit level, not approximately.
//     weighted_test.go enforces it across the sort and selection paths.
//   - Trimming stays count-based: TrimCount(n) values drop from each
//     side exactly as in the unweighted rule (the robustness argument
//     of Lemma 2 counts adversarial *inputs*, not weight mass), ties
//     trim in input order (the sort is stable), and the kept values
//     average as Σwᵢvᵢ/Σwᵢ.
//   - The weighted median is the 50% weighted-rank order statistic:
//     sort pairs, walk the cumulative weight to W/2; landing exactly on
//     W/2 averages the straddling pair, which reproduces the unweighted
//     even-n midpoint at weight ≡ 1.

// WeightedRule is a Rule whose kernel can honor per-input aggregation
// weights. weights[i] scales input i; every weight must be positive
// and finite, and len(weights) == len(vecs).
type WeightedRule interface {
	Rule
	// AggregateWeightedInto writes the weighted aggregate into dst
	// (reused when capacity suffices) and returns it. Weight ≡ 1 is
	// bit-identical to AggregateInto.
	AggregateWeightedInto(dst []float64, vecs [][]float64, weights []float64) []float64
}

// WeightedPayloadRule is the fused counterpart: the weighted kernel
// consumes codec payload views directly.
type WeightedPayloadRule interface {
	WeightedRule
	AggregateWeightedPayloadsInto(dst []float64, ps []compress.Payload, weights []float64) []float64
}

// IsWeighted reports whether rule r has a weighted kernel. The async
// scheduler requires one for its server rule.
func IsWeighted(r Rule) bool {
	_, ok := r.(WeightedRule)
	return ok
}

// AggregateWeightedPayloads aggregates weighted payload views under
// rule r: the fused weighted path when available, densify-first into
// the dense weighted kernel otherwise. It panics when r has no weighted
// kernel (config validation rejects such rules before any round runs).
func AggregateWeightedPayloads(r Rule, dst []float64, ps []compress.Payload, weights []float64) (out []float64, fused bool) {
	switch wr := r.(type) {
	case WeightedPayloadRule:
		return wr.AggregateWeightedPayloadsInto(dst, ps, weights), true
	case WeightedRule:
		checkPayloads(ps, r.Name())
		return wr.AggregateWeightedInto(dst, densify(ps), weights), false
	}
	panic(fmt.Sprintf("aggregate: rule %s has no weighted kernel", r.Name()))
}

func checkWeights(n int, weights []float64, rule string) {
	if len(weights) != n {
		panic(fmt.Sprintf("aggregate: %s got %d weights for %d inputs", rule, len(weights), n))
	}
	for i, w := range weights {
		if !(w > 0) || w > 1e300 {
			panic(fmt.Sprintf("aggregate: %s weight %d = %v, want positive and finite", rule, i, w))
		}
	}
}

// AggregateWeightedInto implements WeightedRule. The arithmetic
// mirrors VecMean exactly at weight ≡ 1: a zeroed accumulator, one
// ordered pass of dst[j] += w·v[j] per input (1·x ≡ x), and one final
// multiply by the reciprocal of the weight sum (Σ1 = n exactly).
func (Mean) AggregateWeightedInto(dst []float64, vecs [][]float64, weights []float64) []float64 {
	d := checkInputs(vecs, "mean")
	checkWeights(len(vecs), weights, "mean")
	out := zeroVec(dst, d)
	wsum := 0.0
	for i, v := range vecs {
		tensor.VecAxpy(out, weights[i], v)
		wsum += weights[i]
	}
	tensor.VecScale(out, 1/wsum)
	return out
}

// AggregateWeightedPayloadsInto implements WeightedPayloadRule via the
// same column-gather partition as the unweighted fused path; the
// per-column sum Σwᵢ·colᵢ runs in input order and scales by the same
// single reciprocal, so it is bit-identical to the row-wise dense
// kernel for any weights (identical operation sequence per coordinate)
// and to the unweighted fused Mean at weight ≡ 1.
func (Mean) AggregateWeightedPayloadsInto(dst []float64, ps []compress.Payload, weights []float64) []float64 {
	d := checkPayloads(ps, "mean")
	checkWeights(len(ps), weights, "mean")
	wsum := 0.0
	for _, w := range weights {
		wsum += w
	}
	inv := 1 / wsum
	out := zeroVec(dst, d)
	gatherPayloadColumnsScratch(ps, d, 0, out, 0, func(col, _ []float64, _ *chunkScratch) float64 {
		s := 0.0
		for i, v := range col {
			s += weights[i] * v
		}
		return s * inv
	})
	return out
}

// AggregateWeightedInto implements WeightedRule.
func (t TrimmedMean) AggregateWeightedInto(dst []float64, vecs [][]float64, weights []float64) []float64 {
	d := checkInputs(vecs, "trimmed_mean")
	n := len(vecs)
	checkWeights(n, weights, "trimmed_mean")
	m := t.TrimCount(n)
	out := ensureVec(dst, d)
	forEachCoordChunk(d, n, t.Workers, func(lo, hi int) {
		s := getChunkScratch(n, 2*m)
		col, win := s.col, s.win
		for j := lo; j < hi; j++ {
			for i, v := range vecs {
				col[i] = v[j]
			}
			out[j] = weightedTrimmedMeanOf(col, weights, m, win, s)
		}
		putChunkScratch(s)
	})
	return out
}

// AggregateWeightedPayloadsInto implements WeightedPayloadRule.
func (t TrimmedMean) AggregateWeightedPayloadsInto(dst []float64, ps []compress.Payload, weights []float64) []float64 {
	d := checkPayloads(ps, "trimmed_mean")
	checkWeights(len(ps), weights, "trimmed_mean")
	m := t.TrimCount(len(ps))
	out := zeroVec(dst, d)
	gatherPayloadColumnsScratch(ps, d, t.Workers, out, 2*m, func(col, win []float64, s *chunkScratch) float64 {
		return weightedTrimmedMeanOf(col, weights, m, win, s)
	})
	return out
}

// AggregateWeightedInto implements WeightedRule.
func (c CoordinateMedian) AggregateWeightedInto(dst []float64, vecs [][]float64, weights []float64) []float64 {
	d := checkInputs(vecs, "median")
	n := len(vecs)
	checkWeights(n, weights, "median")
	out := ensureVec(dst, d)
	forEachCoordChunk(d, n, c.Workers, func(lo, hi int) {
		s := getChunkScratch(n, 0)
		col := s.col
		for j := lo; j < hi; j++ {
			for i, v := range vecs {
				col[i] = v[j]
			}
			out[j] = weightedMedianOf(col, weights, s)
		}
		putChunkScratch(s)
	})
	return out
}

// AggregateWeightedPayloadsInto implements WeightedPayloadRule.
func (c CoordinateMedian) AggregateWeightedPayloadsInto(dst []float64, ps []compress.Payload, weights []float64) []float64 {
	d := checkPayloads(ps, "median")
	checkWeights(len(ps), weights, "median")
	out := zeroVec(dst, d)
	gatherPayloadColumnsScratch(ps, d, c.Workers, out, 0, func(col, _ []float64, s *chunkScratch) float64 {
		return weightedMedianOf(col, weights, s)
	})
	return out
}

// weightedTrimmedMeanOf is trimmedMeanOf with per-value weights: drop
// the m smallest and m largest values (count-based, ties in input
// order), return Σwv/Σw over the kept values. col is scratch and may
// be reordered; weights is read-only (the mutable copy lives in s).
// Path selection, scan order and the final divide mirror trimmedMeanOf
// exactly, which is what makes weight ≡ 1 bit-identical.
func weightedTrimmedMeanOf(col, weights []float64, m int, win []float64, s *chunkScratch) float64 {
	n := len(col)
	if m == 0 {
		sum, wsum := 0.0, 0.0
		for i, v := range col {
			sum += weights[i] * v
			wsum += weights[i]
		}
		return sum / wsum
	}
	if !useSelection(n, m) {
		wcol := grownFloats(s.wcol, n)
		s.wcol = wcol
		copy(wcol, weights)
		sortColumnPairs(col, wcol, s)
		sum, wsum := 0.0, 0.0
		for i := m; i < n-m; i++ {
			sum += wcol[i] * col[i]
			wsum += wcol[i]
		}
		return sum / wsum
	}
	a, b := selectTrimBounds(col, m, win)
	if a == b {
		// Every kept rank holds the same value; the weighted average of
		// identical values is that value.
		return a
	}
	// Pass 1: classify values against the trim bounds, accumulating the
	// weighted sum of the strictly interior values in scan order.
	var (
		midSum, midW          float64
		cntLessA, cntGreaterB int
		ca, cb                int
	)
	for i, v := range col {
		switch {
		case v < a:
			cntLessA++
		case v > b:
			cntGreaterB++
		case v == a:
			ca++
		case v == b:
			cb++
		default:
			midSum += weights[i] * v
			midW += weights[i]
		}
	}
	// The low trim consumes the first trimA occurrences of a in input
	// order (stable-sort semantics) and the high trim the last trimB
	// occurrences of b; pass 2 sums the surviving occurrences' weights.
	trimA := m - cntLessA
	keptB := cb - (m - cntGreaterB)
	var wa, wb float64
	seenA, seenB := 0, 0
	for i, v := range col {
		if v == a {
			seenA++
			if seenA > trimA {
				wa += weights[i]
			}
		} else if v == b {
			seenB++
			if seenB <= keptB {
				wb += weights[i]
			}
		}
	}
	return (midSum + wa*a + wb*b) / (midW + wa + wb)
}

// weightedMedianOf returns the 50% weighted-rank order statistic:
// after a stable value sort, the first value whose cumulative weight
// exceeds half the total; landing exactly on half averages the
// straddling pair (0.5·(col[k]+col[k+1])), which reproduces the
// unweighted even-n midpoint at weight ≡ 1. col is scratch; weights is
// read-only.
func weightedMedianOf(col, weights []float64, s *chunkScratch) float64 {
	n := len(col)
	wcol := grownFloats(s.wcol, n)
	s.wcol = wcol
	copy(wcol, weights)
	sortColumnPairs(col, wcol, s)
	total := 0.0
	for _, w := range wcol {
		total += w
	}
	half := 0.5 * total
	cum := 0.0
	for k := 0; k < n; k++ {
		cum += wcol[k]
		if cum > half {
			return col[k]
		}
		if cum == half {
			// Weights are positive, so cum < total here and k+1 < n.
			return 0.5 * (col[k] + col[k+1])
		}
	}
	return col[n-1] // unreachable for positive weights; FP safety net
}

// wpair carries one column value and its weight through a stable sort.
type wpair struct{ v, w float64 }

// sortColumnPairs orders col ascending, applying the same permutation
// to w. The sort is stable — ties keep input order — so tie-trimming
// is deterministic and matches the selection path's first-occurrence
// accounting. Short columns use the same insertion sort as sortColumn
// (which is naturally stable); longer ones stable-sort value/weight
// pairs in pooled scratch.
func sortColumnPairs(col, w []float64, s *chunkScratch) {
	n := len(col)
	if n <= 32 {
		for i := 1; i < n; i++ {
			v, wv := col[i], w[i]
			j := i - 1
			for j >= 0 && col[j] > v {
				col[j+1], w[j+1] = col[j], w[j]
				j--
			}
			col[j+1], w[j+1] = v, wv
		}
		return
	}
	pairs := s.pairs
	if cap(pairs) < n {
		pairs = make([]wpair, n)
	}
	pairs = pairs[:n]
	s.pairs = pairs
	for i := range pairs {
		pairs[i] = wpair{v: col[i], w: w[i]}
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
	for i, p := range pairs {
		col[i], w[i] = p.v, p.w
	}
}

var (
	_ WeightedRule = Mean{}
	_ WeightedRule = TrimmedMean{}
	_ WeightedRule = CoordinateMedian{}

	_ WeightedPayloadRule = Mean{}
	_ WeightedPayloadRule = TrimmedMean{}
	_ WeightedPayloadRule = CoordinateMedian{}
)
