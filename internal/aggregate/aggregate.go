// Package aggregate implements the robust aggregation rules of the
// Fed-MS paper and the baselines it cites.
//
// Every rule is a pure function on a set of equal-length parameter
// vectors. In Fed-MS the client-side model filter applies TrimmedMean to
// the P global models received from the (partly Byzantine) parameter
// servers; Mean is the vanilla-FL filter used as the paper's comparison
// baseline; CoordinateMedian, Krum and GeoMedian are the classic
// Byzantine-robust baselines from the related-work section.
package aggregate

import (
	"fmt"
	"math"
	"sort"

	"fedms/internal/tensor"
)

// Rule combines candidate parameter vectors into one.
type Rule interface {
	Name() string
	// Aggregate returns a fresh vector; it must not retain or mutate
	// the inputs. All inputs have equal length and there is at least
	// one input.
	Aggregate(vecs [][]float64) []float64
}

func checkInputs(vecs [][]float64, rule string) int {
	if len(vecs) == 0 {
		panic(fmt.Sprintf("aggregate: %s on empty input", rule))
	}
	d := len(vecs[0])
	for i, v := range vecs {
		if len(v) != d {
			panic(fmt.Sprintf("aggregate: %s input %d has length %d, want %d", rule, i, len(v), d))
		}
	}
	return d
}

// Mean is plain coordinate-wise averaging — the FedAvg / vanilla-FL
// rule with no Byzantine tolerance.
type Mean struct{}

// Name implements Rule.
func (Mean) Name() string { return "mean" }

// Aggregate implements Rule.
func (m Mean) Aggregate(vecs [][]float64) []float64 { return aggregateDense(m, vecs) }

// TrimmedMean is the Fed-MS model filter trmean_beta: per coordinate,
// discard the ⌈beta·P⌉ largest and smallest values and average the
// rest. With beta = B/P and B < P/2 the result provably stays within the
// span of benign values (Lemma 2 of the paper).
type TrimmedMean struct {
	// Beta is the trim rate in [0, 0.5). The paper sets Beta = B/P
	// (Fed-MS) and studies Beta below B/P as the weaker Fed-MS⁻.
	Beta float64
	// Trim, when positive, overrides the Beta-derived count and drops
	// exactly this many values from each side regardless of the input
	// count. The degraded client path uses it to keep trimming B values
	// per side when only P' < P global models arrive in a round.
	Trim int
	// Workers bounds the goroutines of the coordinate-partitioned
	// parallel aggregation path (0 or 1 = serial). The output is
	// bit-identical for every value of Workers.
	Workers int
}

// Name implements Rule.
func (t TrimmedMean) Name() string {
	if t.Trim > 0 {
		return fmt.Sprintf("trimmed_mean(trim=%d)", t.Trim)
	}
	return fmt.Sprintf("trimmed_mean(beta=%g)", t.Beta)
}

// TrimCount returns how many values are dropped from each side for n
// inputs: the paper's ⌈Beta·n⌉ (Lemma 2), or the explicit Trim
// override. The ceiling is FP-safe — Beta = B/P lands exactly on B even
// when B/P·n floats to B-1+0.999… — and the Beta-derived count is
// clamped to the largest feasible trim ⌊(n-1)/2⌋ so a degraded round
// with very few inputs still aggregates instead of panicking.
func (t TrimmedMean) TrimCount(n int) int {
	m := t.Trim
	if m <= 0 {
		if t.Beta < 0 {
			panic("aggregate: negative trim rate")
		}
		if t.Beta >= 0.5 {
			panic(fmt.Sprintf("aggregate: trim rate %g leaves no values", t.Beta))
		}
		m = int(math.Ceil(t.Beta*float64(n) - 1e-9))
		if max := (n - 1) / 2; m > max {
			m = max
		}
		return m
	}
	if 2*m >= n {
		panic(fmt.Sprintf("aggregate: trim rate %g (trim %d) leaves no values for n=%d", t.Beta, t.Trim, n))
	}
	return m
}

// Aggregate implements Rule.
func (t TrimmedMean) Aggregate(vecs [][]float64) []float64 { return aggregateDense(t, vecs) }

// CoordinateMedian takes the per-coordinate median (Yin et al., 2018).
type CoordinateMedian struct {
	// Workers bounds the goroutines of the coordinate-partitioned
	// parallel aggregation path (0 or 1 = serial). The output is
	// bit-identical for every value of Workers.
	Workers int
}

// Name implements Rule.
func (CoordinateMedian) Name() string { return "median" }

// Aggregate implements Rule.
func (c CoordinateMedian) Aggregate(vecs [][]float64) []float64 { return aggregateDense(c, vecs) }

// Krum selects the single vector minimizing the sum of squared distances
// to its n-f-2 nearest neighbours (Blanchard et al., NIPS 2017). F is
// the assumed number of Byzantine inputs.
type Krum struct {
	F int
}

// Name implements Rule.
func (k Krum) Name() string { return fmt.Sprintf("krum(f=%d)", k.F) }

// Aggregate implements Rule.
func (k Krum) Aggregate(vecs [][]float64) []float64 {
	checkInputs(vecs, "krum")
	i := k.Select(vecs)
	out := make([]float64, len(vecs[i]))
	copy(out, vecs[i])
	return out
}

// Select returns the index of the Krum-chosen vector.
func (k Krum) Select(vecs [][]float64) int {
	n := len(vecs)
	nb := n - k.F - 2
	if nb < 1 {
		nb = 1
	}
	if nb > n-1 {
		nb = n - 1
	}
	if n == 1 {
		return 0
	}
	// Pairwise squared distances.
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d2[i][j] = tensor.VecSqDist(vecs[i], vecs[j])
			d2[j][i] = d2[i][j]
		}
	}
	best, bestScore := 0, 0.0
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, d2[i][j])
			}
		}
		sort.Float64s(row)
		score := 0.0
		for _, v := range row[:nb] {
			score += v
		}
		// Scores can genuinely tie (e.g. with nb = 1 the two mutually
		// closest vectors share their min distance), so break ties by
		// vector content — index-based tie-breaking would make the
		// selection depend on input order.
		if i == 0 || score < bestScore ||
			(score == bestScore && lexLess(vecs[i], vecs[best])) {
			best, bestScore = i, score
		}
	}
	return best
}

// lexLess orders vectors lexicographically — a permutation-invariant
// tie-breaker for selection rules.
func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// GeoMedian approximates the geometric median with Weiszfeld's
// iteration (the smoothed-median aggregation of Pillutla et al.).
type GeoMedian struct {
	// MaxIters bounds the Weiszfeld iterations (default 50).
	MaxIters int
	// Eps is the Weiszfeld smoothing constant added to each distance
	// (default 1e-8). It shapes the objective, not the stopping rule.
	Eps float64
	// Tol is the convergence threshold on the iterate's movement
	// (default 1e-8). Eps and Tol are independent: loosening the
	// smoothing no longer silently loosens convergence.
	Tol float64
}

// Name implements Rule.
func (GeoMedian) Name() string { return "geo_median" }

// Aggregate implements Rule.
func (g GeoMedian) Aggregate(vecs [][]float64) []float64 {
	d := checkInputs(vecs, "geo_median")
	iters := g.MaxIters
	if iters <= 0 {
		iters = 50
	}
	eps := g.Eps
	if eps <= 0 {
		eps = 1e-8
	}
	tol := g.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	// Start from the coordinate-wise mean.
	z := make([]float64, d)
	tensor.VecMean(z, vecs)
	next := make([]float64, d)
	for it := 0; it < iters; it++ {
		var wsum float64
		for i := range next {
			next[i] = 0
		}
		for _, v := range vecs {
			dist := tensor.VecDist2(z, v)
			w := 1 / (dist + eps)
			wsum += w
			tensor.VecAxpy(next, w, v)
		}
		tensor.VecScale(next, 1/wsum)
		if tensor.VecDist2(z, next) < tol {
			copy(z, next)
			break
		}
		copy(z, next)
	}
	return z
}

var (
	_ Rule = Mean{}
	_ Rule = TrimmedMean{}
	_ Rule = CoordinateMedian{}
	_ Rule = Krum{}
	_ Rule = GeoMedian{}
)
