package aggregate

import (
	"math"
	"sort"
	"testing"

	"fedms/internal/compress"
	"fedms/internal/randx"
)

// sparseView encodes v as a sparse payload whose support is every
// coordinate with nonzero bits, so an explicit -0.0 stays explicit and
// the view densifies to exactly v.
func sparseView(t testing.TB, v []float64) compress.Payload {
	t.Helper()
	s := compress.Sparse{Dim: len(v)}
	for j, x := range v {
		if math.Float64bits(x) != 0 {
			s.Indices = append(s.Indices, uint32(j))
			s.Values = append(s.Values, x)
		}
	}
	p, err := compress.ParsePayload(compress.EncSparse, s.AppendEncode(nil))
	if err != nil {
		t.Fatalf("ParsePayload(sparse): %v", err)
	}
	return p
}

// wireView encodes v as an EncDense payload: a view over wire bytes,
// which the flat gather reads through its mixed mode.
func wireView(t testing.TB, v []float64) compress.Payload {
	t.Helper()
	p, err := compress.ParsePayload(compress.EncDense, compress.DenseWire(v))
	if err != nil {
		t.Fatalf("ParsePayload(dense): %v", err)
	}
	return p
}

// kernelPaths aggregates vecs under a coordinate rule along every path
// that drives its kernel: the flat gather over DensePayload views
// ("dense"), EncDense bytes, sparse views and a sparse/EncDense mix;
// the shard tree at 2 and 3 shards over EncDense and sparse rows; and
// the weighted kernels at weight ≡ 1 over dense and sparse views (run,
// not Run, so the ones are not dropped). A "reference" arm, computed by
// referenceAggregate without any kernel code, joins them wherever the
// reduction is a rank statistic.
func kernelPaths(t testing.TB, rule Rule, vecs [][]float64) map[string][]float64 {
	t.Helper()
	n := len(vecs)
	wire := make([]compress.Payload, n)
	sparse := make([]compress.Payload, n)
	mixed := make([]compress.Payload, n)
	for i, v := range vecs {
		wire[i], sparse[i] = wireView(t, v), sparseView(t, v)
		mixed[i] = wire[i]
		if i%2 == 0 {
			mixed[i] = sparse[i]
		}
	}
	dense := denseViews(vecs)
	ones := onesWeights(n)
	paths := map[string][]float64{
		"dense":             Run(Request{Rule: rule, Views: dense}).Out,
		"encdense":          Run(Request{Rule: rule, Views: wire}).Out,
		"sparse":            Run(Request{Rule: rule, Views: sparse}).Out,
		"mixed":             Run(Request{Rule: rule, Views: mixed}).Out,
		"shards=2/encdense": Run(Request{Rule: rule, Views: wire, Shards: 2}).Out,
		"shards=3/encdense": Run(Request{Rule: rule, Views: wire, Shards: 3}).Out,
		"shards=2/sparse":   Run(Request{Rule: rule, Views: sparse, Shards: 2}).Out,
		"shards=3/mixed":    Run(Request{Rule: rule, Views: mixed, Shards: 3}).Out,
		"weighted/dense":    Request{Rule: rule, Views: dense, Weights: ones}.run().Out,
		"weighted/sparse":   Request{Rule: rule, Views: sparse, Weights: ones}.run().Out,
	}
	if ref := referenceAggregate(rule, vecs); ref != nil {
		paths["reference"] = ref
	}
	return paths
}

// referenceAggregate is the kernels' oracle: each column is copied,
// every NaN read as +Inf (the mean keeps its NaNs, having no ranks),
// and ranked with sort.SliceStable — ties keep
// input order, except that past 32 members -0 ranks below +0, the
// order sortColumn documents for its library-sort fallback. The mean
// sums in member order and scales by 1/n; the trimmed mean sums its
// kept ranks m … n−m−1 in rank order and divides by their count (at
// m = 0 it sums in member order); the median is the middle rank or
// 0.5·(sum of the middle pair). It returns nil for a trimmed mean on
// the partial-selection path, whose kept sum is not in rank order.
func referenceAggregate(rule Rule, vecs [][]float64) []float64 {
	n, d := len(vecs), len(vecs[0])
	m := 0
	if tm, ok := rule.(TrimmedMean); ok {
		if m = tm.TrimCount(n); useSelection(n, m) {
			return nil
		}
	}
	_, mean := rule.(Mean)
	_, median := rule.(CoordinateMedian)
	out := make([]float64, d)
	col := make([]float64, n)
	for j := range out {
		for i, v := range vecs {
			col[i] = v[j]
			if v[j] != v[j] && !mean {
				col[i] = math.Inf(1)
			}
		}
		sum := 0.0
		if mean || (!median && m == 0) {
			for _, v := range col {
				sum += v
			}
			if mean {
				out[j] = sum * (1 / float64(n))
			} else {
				out[j] = sum / float64(n)
			}
			continue
		}
		sort.SliceStable(col, func(a, b int) bool {
			x, y := col[a], col[b]
			return x < y || (n > 32 && x == 0 && y == 0 && math.Signbit(x) && !math.Signbit(y))
		})
		switch {
		case !median:
			for _, v := range col[m : n-m] {
				sum += v
			}
			out[j] = sum / float64(n-2*m)
		case n%2 == 1:
			out[j] = col[(n-1)/2]
		default:
			out[j] = 0.5 * (col[n/2-1] + col[n/2])
		}
	}
	return out
}

// outsideSpan reports whether v lies outside [lo, hi] widened by a
// rounding tolerance. NaN is outside every span: the comparisons are
// written so that NaN fails them.
func outsideSpan(v, lo, hi float64) bool {
	tol := 1e-9 * math.Max(1, math.Max(math.Abs(lo), math.Abs(hi)))
	return !(v >= lo-tol && v <= hi+tol)
}

// benignSpan returns coordinate j's [min, max] over the rows not in
// byz.
func benignSpan(vecs [][]float64, byz map[int]bool, j int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i, v := range vecs {
		if !byz[i] {
			lo, hi = math.Min(lo, v[j]), math.Max(hi, v[j])
		}
	}
	return lo, hi
}

// TestByzantineNaNStaysTrimmed is Lemma 2 against arbitrary values:
// with B ≤ TrimCount(n) Byzantine members sending NaN, +Inf or -Inf,
// the trimmed mean and the median stay inside the benign span on every
// path — flat dense, sparse and mixed gathers, the shard tree, the
// weighted kernels — across the trimmed mean's insertion network over
// staged tiles, the per-column insertion sort, the library sort past
// 32 inputs and the selection path. Byzantine members sit mid-column,
// where a NaN left in place by the sort would land in the kept ranks.
func TestByzantineNaNStaysTrimmed(t *testing.T) {
	const d = 64
	nan, inf := math.NaN(), math.Inf(1)
	arbitrary := []float64{nan, inf, -inf, nan, 1e300, -1e300}
	cases := []struct {
		n    int
		rule TrimmedMean
	}{
		{5, TrimmedMean{Beta: 0.2}},  // P = 5, B = 1: insertion network
		{7, TrimmedMean{Beta: 0.3}},  // B = 3 of 7: insertion sort
		{40, TrimmedMean{Beta: 0.2}}, // B = 8: library sort past 32
		{40, TrimmedMean{Trim: 3}},   // selection path
	}
	r := randx.New(71)
	for _, tc := range cases {
		b := tc.rule.TrimCount(tc.n)
		vecs := randomVecs(r, tc.n, d)
		byz := map[int]bool{}
		for k := 0; k < b; k++ {
			i := (3*k + 1) % tc.n
			byz[i] = true
			for j := range vecs[i] {
				vecs[i][j] = arbitrary[(j+k)%len(arbitrary)]
				if j%5 == 4 {
					vecs[i][j] = nan // every Byzantine member NaN at once
				}
			}
		}
		weights := stalenessWeights(randx.New(uint64(tc.n)), tc.n, 3)
		for _, rule := range []Rule{tc.rule, CoordinateMedian{}} {
			paths := kernelPaths(t, rule, vecs)
			if _, trim := rule.(TrimmedMean); trim {
				// Count-based trimming holds at any weights; the weighted
				// median does not (weight mass, not count, picks it).
				paths["weighted/staleness"] = weightedDense(rule, vecs, weights)
			}
			for path, out := range paths {
				for j, v := range out {
					if lo, hi := benignSpan(vecs, byz, j); outsideSpan(v, lo, hi) {
						t.Fatalf("%s n=%d B=%d %s coord %d: %v outside benign [%v, %v]",
							rule.Name(), tc.n, b, path, j, v, lo, hi)
					}
				}
			}
		}
	}
}

// kernelPalette is FuzzCoordinateKernels' value alphabet: signed zeros,
// infinities, NaN, subnormals and small integers that tie.
var kernelPalette = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 2.2250738585072009e-308, 1, -1, 1, 2, -2, 0.5, 3, 1e-300,
}

// benignPalette is the finite subset benign members draw from in the
// range check.
var benignPalette = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1, 2, 0.5, 0.1, -3}

// sameBits compares two aggregates bit for bit, except that any NaN
// equals any NaN: IEEE 754 leaves the payload of a NaN result open when
// the operands carry different NaNs.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// FuzzCoordinateKernels checks the coordinateRule contract over
// generated inputs. data picks n ∈ [1, 40] members and d ∈ [1, 600]
// coordinates (crossing the 256-coordinate gather tile), then every
// value from kernelPalette. For the mean, the trimmed mean (β = 0.2 and
// an explicit trim that reaches the selection path) and the median,
// every kernelPaths path must match the reference arm bit for bit, or,
// on the selection path, which has none, the dense path.
// With the members at most TrimCount(n) of which draw arbitrary values
// (the rest finite), the trimmed mean and the median must stay inside
// the benign span.
func FuzzCoordinateKernels(f *testing.F) {
	f.Add([]byte{4, 0, 0, 2, 4, 4, 4, 4, 3, 8, 0, 1, 9})        // P = 5, d = 1
	f.Add([]byte{39, 0x57, 0x02, 1, 4, 2, 3, 4, 0, 1, 6, 7, 5}) // n = 40, d = 600
	f.Add([]byte{32, 0x2c, 0x01, 0, 1, 4, 4, 4, 2, 3, 9, 14})   // n = 33, d = 301
	f.Add([]byte{0, 0x00, 0x01, 7})                             // one member
	f.Add([]byte{5, 0xff, 0x00, 0, 0, 0, 1, 0, 0, 0, 0})        // mostly zeros: sparse skips
	f.Add([]byte{4, 0x2b, 0x01, 0, 1, 4, 9, 2, 1, 0, 3, 2, 1})  // P = 5, d = 300: the network, two tiles
	f.Add([]byte{9, 0x07, 0x02, 1, 0, 9, 4, 12, 10, 0, 3, 1})   // n = 10, d = 520
	f.Add([]byte{31, 0x00, 0x01, 0, 1, 1, 0, 4, 11, 2, 3, 2})   // n = 32, d = 257: one lane past the tile
	f.Add([]byte{32, 0x00, 0x02, 1, 0, 0, 1, 9, 4, 3, 12, 11})  // n = 33, d = 513: library sort
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])%40
		d := 1 + (int(data[1])|int(data[2])<<8)%600
		vals := data[3:]
		at := func(i, j int) byte { return vals[(i*d+j)%len(vals)] ^ byte(j/len(vals)) }
		rules := []Rule{Mean{}, TrimmedMean{Beta: 0.2}, CoordinateMedian{}}
		if n >= 3 {
			rules = append(rules, TrimmedMean{Trim: 1 + int(data[0]/40)%((n-1)/2)})
		}

		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = make([]float64, d)
			for j := range vecs[i] {
				vecs[i][j] = kernelPalette[int(at(i, j))%len(kernelPalette)]
			}
		}
		for _, rule := range rules {
			paths := kernelPaths(t, rule, vecs)
			ref := "reference"
			if _, ok := paths[ref]; !ok {
				ref = "dense"
			}
			want := paths[ref]
			for path, got := range paths {
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("%s n=%d d=%d %s coord %d: %v (%#x) != %s %v (%#x)", rule.Name(), n, d, path, j,
							got[j], math.Float64bits(got[j]), ref, want[j], math.Float64bits(want[j]))
					}
				}
			}
		}

		// Range tier: members off..off+B-1 (mod n) keep their arbitrary
		// values, the rest are remapped to finite benign ones.
		for _, rule := range rules[1:] {
			b := TrimmedMean{Beta: 0.2}.TrimCount(n)
			if tm, ok := rule.(TrimmedMean); ok {
				b = tm.TrimCount(n)
			}
			off := int(data[1]) % n
			byz := map[int]bool{}
			for k := 0; k < b; k++ {
				byz[(off+k)%n] = true
			}
			for i := range vecs {
				if byz[i] {
					continue
				}
				for j := range vecs[i] {
					vecs[i][j] = benignPalette[int(at(i, j))%len(benignPalette)]
				}
			}
			out := Run(Request{Rule: rule, Views: denseViews(vecs)}).Out
			for j, v := range out {
				if lo, hi := benignSpan(vecs, byz, j); outsideSpan(v, lo, hi) {
					t.Fatalf("%s n=%d B=%d coord %d: %v outside benign [%v, %v]", rule.Name(), n, b, j, v, lo, hi)
				}
			}
		}
	})
}

// TestMedianKeepsStableZeroOrder: the median of the column [+0, −0, 1]
// is −0 on every path, the stable order's middle rank; so is that of
// [+0, 1, −0], and [−0, 1, +0]'s is +0. A sort that ranks −0 below
// +0 would put −0 first, and one that moves a value past an equal one
// (a ≥ in the insertion sort) would put the later zero ahead of the
// earlier one.
func TestMedianKeepsStableZeroOrder(t *testing.T) {
	const d = 300 // two gather tiles
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		col  [3]float64
		want float64
	}{
		{[3]float64{0, negZero, 1}, negZero},
		{[3]float64{0, 1, negZero}, negZero},
		{[3]float64{negZero, 1, 0}, 0},
	} {
		vecs := make([][]float64, len(tc.col))
		for i, v := range tc.col {
			vecs[i] = make([]float64, d)
			for j := range vecs[i] {
				vecs[i][j] = v
			}
		}
		for path, out := range kernelPaths(t, CoordinateMedian{}, vecs) {
			for j, v := range out {
				if math.Float64bits(v) != math.Float64bits(tc.want) {
					t.Fatalf("%v %s coord %d: median %v (%#x), want %v", tc.col, path, j, v, math.Float64bits(v), tc.want)
				}
			}
		}
	}
}

// TestKernelsMatchReference holds every kernel path to the reference
// arm on i.i.d. normal columns, where the order in which the kept
// ranks are summed shows in the low bits; kernelPalette's values sum
// exactly in almost any order.
func TestKernelsMatchReference(t *testing.T) {
	r := randx.New(97)
	for _, n := range []int{2, 3, 5, 6, 7, 10, 33} {
		vecs := randomVecs(r, n, 300)
		for _, rule := range []Rule{Mean{}, TrimmedMean{Beta: 0.2}, TrimmedMean{Trim: (n - 1) / 2}, CoordinateMedian{}} {
			paths := kernelPaths(t, rule, vecs)
			want := paths["reference"]
			for path, got := range paths {
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("%s n=%d %s coord %d: %v != reference %v", rule.Name(), n, path, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestFilterAllocs: a steady-state client filter — Run under
// TrimmedMean{Trim: 1} over 5 DensePayload views at d = 1e5, reusing
// Dst — allocates at most 3 objects (2 when this gate was written), so
// a tile scratch that escapes the chunk pool, one allocation per 256
// coordinates, fails it by hundreds.
func TestFilterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const d = 100_000
	q := Request{Rule: TrimmedMean{Trim: 1}, Views: denseViews(randomVecs(randx.New(5), 5, d)),
		Dst: make([]float64, d), Workers: 1}
	Run(q) // fill the chunk pool
	if a := testing.AllocsPerRun(20, func() { Run(q) }); a > 3 {
		t.Fatalf("filter allocates %v objects per Run, want <= 3", a)
	}
}
