package aggregate

import (
	"fmt"
	"math"
	"sort"

	"fedms/internal/tensor"
)

// MultiKrum averages the M vectors with the best Krum scores
// (Blanchard et al., NIPS 2017). F is the assumed number of Byzantine
// inputs; M defaults to n − F − 2.
type MultiKrum struct {
	F int
	M int
}

// Name implements Rule.
func (k MultiKrum) Name() string { return fmt.Sprintf("multikrum(f=%d,m=%d)", k.F, k.M) }

// Aggregate implements Rule.
func (k MultiKrum) Aggregate(vecs [][]float64) []float64 {
	d := checkInputs(vecs, "multikrum")
	n := len(vecs)
	m := k.M
	if m <= 0 {
		m = n - k.F - 2
	}
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	selected := krumRank(vecs, k.F)[:m]
	out := make([]float64, d)
	for _, i := range selected {
		tensor.VecAdd(out, vecs[i])
	}
	tensor.VecScale(out, 1/float64(m))
	return out
}

// krumRank returns vector indices ordered by ascending Krum score.
func krumRank(vecs [][]float64, f int) []int {
	n := len(vecs)
	nb := n - f - 2
	if nb < 1 {
		nb = 1
	}
	if nb > n-1 {
		nb = n - 1
	}
	scores := make([]float64, n)
	if n == 1 {
		return []int{0}
	}
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
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, d2[i][j])
			}
		}
		sort.Float64s(row)
		s := 0.0
		for _, v := range row[:nb] {
			s += v
		}
		scores[i] = s
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := scores[order[a]], scores[order[b]]
		if sa != sb {
			return sa < sb
		}
		// Scores can genuinely tie (e.g. with nb = 1 the two mutually
		// closest vectors share their min distance), so break ties by
		// vector content — index-based tie-breaking would make the
		// selection depend on input order.
		return lexLess(vecs[order[a]], vecs[order[b]])
	})
	return order
}

// Bulyan is the two-stage defence of El Mhamdi et al. (ICML 2018),
// cited in the paper's related work: first select θ = n − 2F vectors by
// iterated Krum, then aggregate coordinate-wise by averaging the
// θ − 2F values closest to the median. Requires n ≥ 4F + 3 for its
// original guarantees; this implementation degrades gracefully by
// clamping the selection sizes.
type Bulyan struct {
	F int
}

// Name implements Rule.
func (b Bulyan) Name() string { return fmt.Sprintf("bulyan(f=%d)", b.F) }

// Aggregate implements Rule.
func (b Bulyan) Aggregate(vecs [][]float64) []float64 {
	d := checkInputs(vecs, "bulyan")
	n := len(vecs)

	theta := n - 2*b.F
	if theta < 1 {
		theta = 1
	}
	// Stage 1: iterated Krum selection of theta vectors.
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	selected := make([]int, 0, theta)
	for len(selected) < theta {
		sub := make([][]float64, len(remaining))
		for i, idx := range remaining {
			sub[i] = vecs[idx]
		}
		pick := Krum{F: b.F}.Select(sub)
		selected = append(selected, remaining[pick])
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}

	// Stage 2: per coordinate, average the beta values closest to the
	// median of the selected set.
	beta := theta - 2*b.F
	if beta < 1 {
		beta = 1
	}
	out := make([]float64, d)
	col := make([]float64, len(selected))
	type kv struct{ dist, val float64 }
	closest := make([]kv, len(selected))
	for j := 0; j < d; j++ {
		for i, idx := range selected {
			col[i] = vecs[idx][j]
		}
		med := medianOf(col, nil, nil)
		for i, v := range col {
			closest[i] = kv{dist: math.Abs(v - med), val: v}
		}
		sort.Slice(closest, func(a, b int) bool {
			if closest[a].dist != closest[b].dist {
				return closest[a].dist < closest[b].dist
			}
			// Values symmetric around the median tie in distance;
			// order by value so the cut is permutation invariant.
			return closest[a].val < closest[b].val
		})
		s := 0.0
		for i := 0; i < beta; i++ {
			s += closest[i].val
		}
		out[j] = s / float64(beta)
	}
	return out
}

var (
	_ Rule = MultiKrum{}
	_ Rule = Bulyan{}
)
