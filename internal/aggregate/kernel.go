package aggregate

import (
	"math"
	"sort"
)

// coordinateRule is a rule that aggregates coordinate by coordinate:
// Mean, TrimmedMean and CoordinateMedian. Each writes its arithmetic
// once, as the kernel below, and every path drives that one kernel —
// the flat gather over dense, sparse or mixed views, the shard tree,
// and the dense Aggregate method. The contract:
//
//   - Bit-identity across gathers and shards. A column is gathered in
//     member order whatever its source, and the kernel sees the same
//     floats in the same order, so every gather mode, worker count and
//     shard count returns the same bits. An all-sparse gather never
//     reduces a column no view touches: it keeps +0.0, which is what
//     every kernel returns for an all-zero column.
//   - Weight ≡ 1 identity. nil weights weigh every member 1, and the
//     weighted arithmetic is the unweighted arithmetic with explicit
//     weights: same scan and summation order, same path choice (a pure
//     function of n and the trim count), and 1·x = x with exact
//     small-integer weight sums. Run relies on it to drop all-ones
//     weights. Trimming stays count-based under weights (Lemma 2 counts
//     adversarial inputs, not weight mass), ties trim in input order,
//     and the weighted median is the 50% weighted-rank order statistic.
//   - NaN ranks above every finite number, level with +Inf: the
//     trimmed mean and the median read each NaN in a column as +Inf
//     before ranking it (compress.TopKIndices, too, ranks NaN at the
//     top). Up to TrimCount(n) NaNs per coordinate are therefore
//     trimmed like any other extreme instead of landing in the kept
//     ranks. The mean has no ranks and propagates NaN.
//
// NoFuse hides the kernel, so a wrapped rule aggregates densify-first
// through its dense Aggregate.
type coordinateRule interface {
	Rule
	kernel(n int, weights []float64) kernel
}

// kernel is one coordinate rule's column reduction for a fixed member
// set of n inputs.
type kernel struct {
	// reduce returns one coordinate's aggregate from its gathered
	// column. col is scratch and may be reordered; s.win holds winLen
	// floats of selection-window scratch.
	reduce func(col []float64, s *chunkScratch) float64
	winLen int
}

// Coordinatewise reports whether rule r aggregates coordinate by
// coordinate (Mean, TrimmedMean, CoordinateMedian): only those rules
// shard, and only those have the weighted kernel async staleness
// down-weighting requires. A NoFuse wrapper reports false.
func Coordinatewise(r Rule) bool {
	_, ok := r.(coordinateRule)
	return ok
}

// weightAt returns member i's weight, 1 when weights is nil.
func weightAt(weights []float64, i int) float64 {
	if weights == nil {
		return 1
	}
	return weights[i]
}

// kernel implements coordinateRule: Σwᵢvᵢ in member order, times the
// one reciprocal 1/Σw (1/n unweighted) — VecMean's arithmetic.
func (Mean) kernel(n int, weights []float64) kernel {
	wsum := float64(n)
	if weights != nil {
		wsum = 0
		for _, w := range weights {
			wsum += w
		}
	}
	inv := 1 / wsum
	return kernel{reduce: func(col []float64, _ *chunkScratch) float64 {
		sum := 0.0
		for i, v := range col {
			sum += weightAt(weights, i) * v
		}
		return sum * inv
	}}
}

// kernel implements coordinateRule.
func (t TrimmedMean) kernel(n int, weights []float64) kernel {
	m := t.TrimCount(n)
	return kernel{
		reduce: func(col []float64, s *chunkScratch) float64 {
			return trimmedMeanOf(col, weights, m, s)
		},
		winLen: 2 * m,
	}
}

// kernel implements coordinateRule.
func (CoordinateMedian) kernel(_ int, weights []float64) kernel {
	return kernel{reduce: func(col []float64, s *chunkScratch) float64 {
		return medianOf(col, weights, s)
	}}
}

// trimmedMeanOf returns the weighted mean Σwv/Σw of col after dropping
// its m smallest and m largest values (count-based, ties in input
// order, NaN ranked as +Inf); nil weights weigh every value 1. col is
// scratch and may be reordered; weights is read-only (the sort path
// co-sorts a copy in s.wcol). When 2m is small relative to n it
// selects the m+m extremes in O(n·m) instead of sorting; both paths
// are exact rank statistics, and the path choice is a pure function
// of (n, m).
func trimmedMeanOf(col, weights []float64, m int, s *chunkScratch) float64 {
	nanAsInf(col)
	n := len(col)
	if m == 0 {
		sum, wsum := 0.0, 0.0
		for i, v := range col {
			w := weightAt(weights, i)
			sum += w * v
			wsum += w
		}
		return sum / wsum
	}
	if !useSelection(n, m) {
		if weights == nil {
			sortColumn(col)
		} else {
			weights = sortColumnPairs(col, weights, s)
		}
		sum, wsum := 0.0, 0.0
		for i := m; i < n-m; i++ {
			w := weightAt(weights, i)
			sum += w * col[i]
			wsum += w
		}
		return sum / wsum
	}
	a, b := selectTrimBounds(col, m, s.win)
	if a == b {
		// Every kept rank holds the same value.
		return a
	}
	// Values strictly inside (a, b) are all kept; occurrences of the
	// boundary values a and b are kept except for the ones the trims
	// consume.
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
			w := weightAt(weights, i)
			midSum += w * v
			midW += w
		}
	}
	// The low trim consumes the first trimA occurrences of a in input
	// order (stable-sort semantics) and the high trim the last ones of
	// b; wa and wb are the surviving occurrences' weights.
	trimA := m - cntLessA
	keptB := cb - (m - cntGreaterB)
	wa, wb := float64(ca-trimA), float64(keptB)
	if weights != nil {
		wa, wb = 0, 0
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
	}
	// A fully trimmed boundary adds nothing: 0·(±Inf) would be NaN.
	sum := midSum
	if wa > 0 {
		sum += wa * a
	}
	if wb > 0 {
		sum += wb * b
	}
	return sum / (midW + wa + wb)
}

// nanAsInf rewrites every NaN in col as +Inf, the column order's top
// (see coordinateRule).
func nanAsInf(col []float64) {
	for i, v := range col {
		if v != v {
			col[i] = math.Inf(1)
		}
	}
}

// useSelection reports whether trimmedMeanOf takes the partial-selection
// path for n inputs trimming m per side. The decision depends only on
// (n, m) — never on worker count — so serial and parallel aggregation
// stay bit-identical.
func useSelection(n, m int) bool {
	return m > 0 && n >= 32 && 8*m <= n
}

// medianOf returns the weighted median of col: after a stable sort,
// the first value whose cumulative weight exceeds half the total, or,
// landing exactly on half, the midpoint of the straddling pair. nil
// weights weigh every value 1, which is the plain median (the middle
// value, or the midpoint of the middle pair), and then s may be nil.
// NaN ranks as +Inf. col is reordered; weights is read-only.
func medianOf(col, weights []float64, s *chunkScratch) float64 {
	nanAsInf(col)
	n := len(col)
	total := float64(n)
	if weights == nil {
		sortColumn(col)
	} else {
		weights = sortColumnPairs(col, weights, s)
		total = 0
		for _, w := range weights {
			total += w
		}
	}
	half := 0.5 * total
	cum := 0.0
	for k := 0; k < n; k++ {
		cum += weightAt(weights, k)
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

// sortColumn orders one gathered coordinate column. Columns are short
// (one value per input vector), where insertion sort beats the general
// sort; longer columns fall back to the library sort, which is not
// stable: -0 and +0 compare equal and may land in either order, so its
// run of zeros is rewritten -0s first, the order sortColumnPairs uses.
func sortColumn(col []float64) {
	if len(col) > 32 {
		sort.Float64s(col)
		lo := sort.SearchFloat64s(col, 0)
		hi, neg := lo, 0
		for ; hi < len(col) && col[hi] == 0; hi++ {
			if math.Signbit(col[hi]) {
				neg++
			}
		}
		for i := lo; i < hi; i++ {
			col[i] = 0
			if i < lo+neg {
				col[i] = math.Copysign(0, -1)
			}
		}
		return
	}
	for i := 1; i < len(col); i++ {
		v := col[i]
		j := i - 1
		for j >= 0 && col[j] > v {
			col[j+1] = col[j]
			j--
		}
		col[j+1] = v
	}
}

// wpair carries one column value and its weight through a stable sort.
type wpair struct{ v, w float64 }

// sortColumnPairs orders col ascending and returns a copy of weights
// (in s.wcol) permuted the same way. The sort is stable — ties keep
// input order — so tie-trimming is deterministic and matches the
// selection path's first-occurrence accounting. Short columns use the
// same insertion sort as sortColumn (which is naturally stable); longer
// ones stable-sort value/weight pairs in pooled scratch, -0 before +0
// like sortColumn, so the values land exactly where sortColumn puts
// them.
func sortColumnPairs(col, weights []float64, s *chunkScratch) []float64 {
	n := len(col)
	w := grownFloats(s.wcol, n)
	s.wcol = w
	copy(w, weights)
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
		return w
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
	sort.SliceStable(pairs, func(a, b int) bool {
		x, y := pairs[a].v, pairs[b].v
		return x < y || (x == 0 && y == 0 && math.Signbit(x) && !math.Signbit(y))
	})
	for i, p := range pairs {
		col[i], w[i] = p.v, p.w
	}
	return w
}

// selectTrimBounds returns the rank-(m-1) and rank-(n-m) order
// statistics of col (0-indexed, ascending) — the largest trimmed-low
// value and the smallest trimmed-high value — via bounded insertion
// into two m-element windows carved from the 2m-float win scratch.
func selectTrimBounds(col []float64, m int, win []float64) (lowMax, highMin float64) {
	low := win[:m]       // ascending: m smallest seen so far
	high := win[m : 2*m] // ascending: m largest seen so far
	copy(low, col[:m])
	copy(high, col[:m])
	sortColumn(low)
	sortColumn(high)
	for _, v := range col[m:] {
		if v < low[m-1] {
			j := m - 2
			for j >= 0 && low[j] > v {
				low[j+1] = low[j]
				j--
			}
			low[j+1] = v
		}
		if v > high[0] {
			j := 1
			for j < m && high[j] < v {
				high[j-1] = high[j]
				j++
			}
			high[j-1] = v
		}
	}
	return low[m-1], high[0]
}

var (
	_ coordinateRule = Mean{}
	_ coordinateRule = TrimmedMean{}
	_ coordinateRule = CoordinateMedian{}
)
