package aggregate

import (
	"math"
	"slices"
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
//     floats in the same order, so both gather modes (sparse and
//     staged), every worker count and every shard count return the
//     same bits. An all-sparse gather never reduces a column no view
//     touches: it keeps +0.0, which is what every kernel returns for
//     an all-zero column.
//   - One permutation per column. The unweighted trimmed mean of up
//     to networkMaxN members reduces a staged tile at once
//     (kernel.tile): an insertion network of adjacent compare-exchanges
//     sorts every lane of the tile without a data-dependent branch,
//     swapping only on a strict >, so each lane ends in exactly the
//     permutation the per-column insertion sort produces — ties and ±0
//     in input order — and the row-by-row reduction repeats the
//     per-column operation order. The tile form is therefore
//     bit-identical to reduce, and the path choice is a pure function
//     of (n, m, weighted).
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
	// tile, when tile.n > 0, is the kernel's tile form: it reduces a
	// whole staged gather tile at once, bit-identical to reduce over
	// each of its columns.
	tile tileForm
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
	k := kernel{
		reduce: func(col []float64, s *chunkScratch) float64 {
			return trimmedMeanOf(col, weights, m, s)
		},
		winLen: 2 * m,
	}
	if weights == nil && m > 0 && !useSelection(n, m) && n <= networkMaxN {
		k.tile = tileForm{n: n, m: m}
	}
	return k
}

// kernel implements coordinateRule.
func (CoordinateMedian) kernel(n int, weights []float64) kernel {
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

// sortColumn orders one gathered coordinate column: the per-column
// fallback behind the tile form's network (see sortTile), which takes
// the unweighted trimmed mean's short columns of staged tiles. Columns are short (one value per input vector), where
// insertion sort beats the general sort, and it is the permutation the
// network reproduces; longer columns fall back to the library sort,
// which is not stable: -0 and +0 compare equal and may land in either
// order, so its run of zeros is rewritten -0s first, the order
// sortColumnPairs uses.
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

// networkMaxN is the largest member count whose tile form sorts with
// the insertion network. The network always does n(n−1)/2
// compare-exchanges per lane, while insertion sort pays per move and
// per mispredicted branch. Sweeping BenchmarkFilter's two column
// shapes over n on a 2-vCPU 2.1 GHz Xeon (median ns/coord, insertion
// → network): on "spread" columns, which arrive in random order, the
// network wins at every n swept (n = 6: 144 → 56, 10: 277 → 155,
// 16: 490 → 374); on "consensus" columns, whose order insertion sort
// predicts perfectly, it keeps up only through n = 6 (63 → 55) and
// falls behind from n = 7 (69 → 71) and n = 8 (84 → 100) on. Like
// useSelection, the gate depends on n alone, never on the data or the
// worker count.
const networkMaxN = 6

// tileForm is an unweighted trimmed mean's (m > 0, outside the
// selection path) reduction of one staged gather tile.
type tileForm struct {
	n int // members: rows in the tile; 0 means no tile form
	m int // rows trimmed per side
}

// reduce writes the aggregates of a tile's columns into out: rows[i]
// holds member i's values for them, len(out) of each, and is scratch.
// It sorts every lane with sortTile, then reduces row by row in the
// per-column kernel's exact operation order: the kept ranks m … n−m−1
// added in rank order to +0.0 and divided by their count.
func (f tileForm) reduce(rows [][]float64, out []float64) {
	sortTile(rows)
	clear(out)
	for _, r := range rows[f.m : f.n-f.m] {
		for j, v := range r[:len(out)] {
			out[j] += v
		}
	}
	c := float64(f.n - 2*f.m)
	for j := range out {
		out[j] /= c
	}
}

// sortTile sorts every lane j of a tile — the column rows[0][j],
// rows[1][j], … — reading each NaN as +Inf, with the insertion network:
// compare-exchanges of adjacent rows (q−1, q) for q = i … 1, for
// i = 1 … n−1. Insertion sort moves value i left past exactly the
// prefix values greater than it; the network's exchange (q−1, q) swaps
// only when row q−1 is strictly greater, and once it stops, the prefix
// is already in order, so its remaining exchanges are no-ops. Every
// lane therefore ends in insertion sort's permutation — ties, and ±0,
// keep their input order — but without a data-dependent branch, and
// the lanes are independent. Row i is first read by step i's first
// exchange, which maps its NaNs on the way, so no separate pass does.
func sortTile(rows [][]float64) {
	nanAsInf(rows[0])
	for i := 1; i < len(rows); i++ {
		compareExchange(rows[i-1], rows[i], true)
		for q := i - 1; q > 0; q-- {
			compareExchange(rows[q-1], rows[q], false)
		}
	}
}

// compareExchange swaps a[j] and b[j] wherever a[j] > b[j]; with fresh
// set it first reads each NaN in b as +Inf (a must hold none). The swap
// selects between the two bit patterns, which the compiler lowers to
// conditional moves, not a branch. It is not min/max, which would put
// −0 before +0 whatever their input order. On BenchmarkFilter's
// 5-member shape (2-vCPU Xeon) it measured about 12 % faster than an
// XOR bit-mask swap.
func compareExchange(a, b []float64, fresh bool) {
	b = b[:len(a)]
	for j, x := range a {
		y := b[j]
		if fresh && y != y {
			y = math.Inf(1)
		}
		lo, hi := math.Float64bits(x), math.Float64bits(y)
		if x > y {
			lo, hi = hi, lo
		}
		a[j], b[j] = math.Float64frombits(lo), math.Float64frombits(hi)
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
	w := grown(s.wcol, n)
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
	pairs := grown(s.pairs, n)
	s.pairs = pairs
	for i := range pairs {
		pairs[i] = wpair{v: col[i], w: w[i]}
	}
	// The sort reads only the sign test cmp < 0, so returning -1
	// exactly where x ranks below y is the whole order.
	slices.SortStableFunc(pairs, func(p, q wpair) int {
		x, y := p.v, q.v
		if x < y || (x == 0 && y == 0 && math.Signbit(x) && !math.Signbit(y)) {
			return -1
		}
		return 1
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
