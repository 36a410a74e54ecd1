package aggregate

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"fedms/internal/compress"
	"fedms/internal/cpu"
	"fedms/internal/randx"
	"fedms/internal/sched"
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
// and the weighted kernels at weight ≡ 1 over dense and sparse views (run,
// not Run, so the ones are not dropped). The sparse views also run with
// every tile forced onto the all-sparse gather's tile arm
// ("sparse/tile") and onto its column arm ("sparse/column"). On a CPU
// with AVX2 the three staged gathers and the forced tile arm run again
// on the pure-Go tile ("go/dense", …, "go/sparse"), so both tile
// kernels meet on every input. A "reference" arm, computed by
// referenceAggregate without any kernel code, joins them wherever the
// reduction is a rank statistic. The tile kernel reads dense views in
// place, so every member must leave byte-unchanged.
func kernelPaths(t testing.TB, rule Rule, vecs [][]float64) map[string][]float64 {
	t.Helper()
	defer requireUnchanged(t, vecs, cloneVecs(vecs))
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
		"dense":           Run(Request{Rule: rule, Views: dense}).Out,
		"encdense":        Run(Request{Rule: rule, Views: wire}).Out,
		"sparse":          Run(Request{Rule: rule, Views: sparse}).Out,
		"mixed":           Run(Request{Rule: rule, Views: mixed}).Out,
		"weighted/dense":  Request{Rule: rule, Views: dense, Weights: ones}.run().Out,
		"weighted/sparse": Request{Rule: rule, Views: sparse, Weights: ones}.run().Out,
	}
	sparseArm := func(tileMin int) []float64 {
		defer SetSparseTileMin(tileMin)()
		return Run(Request{Rule: rule, Views: sparse}).Out
	}
	paths["sparse/tile"] = sparseArm(0)
	paths["sparse/column"] = sparseArm(payloadGatherTile + 1)
	if cpu.AVX2 {
		defer SetTileAVX2(false)()
		paths["go/dense"] = Run(Request{Rule: rule, Views: dense}).Out
		paths["go/encdense"] = Run(Request{Rule: rule, Views: wire}).Out
		paths["go/mixed"] = Run(Request{Rule: rule, Views: mixed}).Out
		paths["go/sparse"] = sparseArm(0)
	}
	if ref := referenceAggregate(rule, vecs); ref != nil {
		paths["reference"] = ref
	}
	return paths
}

// weightedKernelPaths aggregates vecs under a coordinate rule with
// arbitrary weights along every weighted path: the flat gather over
// DensePayload views ("weighted/dense") and over sparse views with
// every tile forced onto the all-sparse gather's tile arm
// ("weighted/sparse/tile") and onto its column arm
// ("weighted/sparse/column"); on a CPU with AVX2 all three run again
// with the AVX2 tile kernel switched off ("go/…"), where a weighted
// set reduces column by column. A "column" arm reduces each column
// with the rule's per-column kernel on its own — trimmedMeanOf for the
// trimmed mean — without any gather. Every member must leave
// byte-unchanged.
func weightedKernelPaths(t testing.TB, rule Rule, vecs [][]float64, weights []float64) map[string][]float64 {
	t.Helper()
	defer requireUnchanged(t, vecs, cloneVecs(vecs))
	n := len(vecs)
	dense, sparse := denseViews(vecs), make([]compress.Payload, n)
	for i, v := range vecs {
		sparse[i] = sparseView(t, v)
	}
	sparseArm := func(tileMin int) []float64 {
		defer SetSparseTileMin(tileMin)()
		return Request{Rule: rule, Views: sparse, Weights: weights}.run().Out
	}
	paths := map[string][]float64{}
	arms := func(prefix string) {
		paths[prefix+"weighted/dense"] = Request{Rule: rule, Views: dense, Weights: weights}.run().Out
		paths[prefix+"weighted/sparse/tile"] = sparseArm(0)
		paths[prefix+"weighted/sparse/column"] = sparseArm(payloadGatherTile + 1)
	}
	arms("")
	if cpu.AVX2 {
		defer SetTileAVX2(false)()
		arms("go/")
	}
	paths["column"] = reduceEachColumn(rule.(coordinateRule).kernel(n, weights), vecs, len(vecs[0]))
	return paths
}

// reduceEachColumn reduces each of the first w columns of rows on its
// own with the kernel's per-column reduce (trimmedMeanOf for the
// trimmed mean), over a copy of the column.
func reduceEachColumn(k kernel, rows [][]float64, w int) []float64 {
	s := getChunkScratch(len(rows), k.winLen)
	defer putChunkScratch(s)
	col, out := make([]float64, len(rows)), make([]float64, w)
	for j := range out {
		for i, r := range rows {
			col[i] = r[j]
		}
		out[j] = k.reduce(col, s)
	}
	return out
}

func cloneVecs(vecs [][]float64) [][]float64 {
	c := make([][]float64, len(vecs))
	for i, v := range vecs {
		c[i] = slices.Clone(v)
	}
	return c
}

// requireUnchanged fails unless every vecs[i] holds before[i]'s bits.
func requireUnchanged(t testing.TB, vecs, before [][]float64) {
	t.Helper()
	for i, v := range vecs {
		for j := range v {
			if math.Float64bits(v[j]) != math.Float64bits(before[i][j]) {
				t.Fatalf("member %d coord %d: %v after aggregating, was %v", i, j, v[j], before[i][j])
			}
		}
	}
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
// path — flat dense, sparse and mixed gathers, the weighted kernels —
// across the trimmed mean's insertion network over staged tiles, the
// per-column insertion sort, the library sort past 32 inputs and the
// selection path. Byzantine members sit mid-column,
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
// every kernelPaths path, the AVX2 and the pure-Go tile alike, must
// match the reference arm bit for bit, or, on the selection path,
// which has none, the dense path. Under non-unit weights — member i
// weighs weightPalette[(i+data[1]) mod 10], so no two adjacent members
// weigh the same and every tie between them is one of unequal weight —
// every weightedKernelPaths path, the AVX2 weighted tile included,
// must match the per-column kernel bit for bit.
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
	// n = 8, d = 600 over 301 value bytes, all +0.0 but two below the
	// first 301 coordinates: the first tile holds about two entries per
	// member, below the sparse gather's gate, the next two are dense,
	// above it, all in one chunk.
	gated := append([]byte{7, 0x57, 0x02}, make([]byte, 301)...)
	gated[3+50], gated[3+150] = 4, 9
	f.Add(gated)
	// Ties between members of unequal weight: palette entries 8 and 10
	// are both 1, 11 is 2, 0 and 1 are ±0.
	f.Add([]byte{7, 0x2b, 0x01, 8, 10, 8, 11, 10, 8, 0, 1, 10}) // n = 8, d = 300: the async server shape
	f.Add([]byte{4, 0x05, 0x01, 8, 10, 11, 10, 8, 1, 0})        // P = 5, d = 262
	f.Add([]byte{11, 0x07, 0x02, 10, 8, 8, 10, 11, 0, 11, 8})   // n = 12, d = 520
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

		weights := make([]float64, n)
		for i := range weights {
			weights[i] = weightPalette[(i+int(data[1]))%len(weightPalette)]
		}
		for _, rule := range rules {
			paths := weightedKernelPaths(t, rule, vecs, weights)
			want := paths["column"]
			for path, got := range paths {
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("%s n=%d d=%d weights %v %s coord %d: %v (%#x) != column %v (%#x)", rule.Name(), n, d, weights, path, j,
							got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
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

func TestMedianOf(t *testing.T) {
	if medianOf([]float64{3, 1, 2}, nil, nil) != 2 {
		t.Fatal("odd median wrong")
	}
	if medianOf([]float64{4, 1, 2, 3}, nil, nil) != 2.5 {
		t.Fatal("even median wrong")
	}
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

// tileInputs draws n members of dimension d whose values mix i.i.d.
// normals with kernelPalette's NaN, ±Inf, ±0, subnormals and small
// integers, and whose every 7th column is one palette value in all
// members, a column of ties.
func tileInputs(r *randx.RNG, n, d int) [][]float64 {
	vecs := randomVecs(r, n, d)
	for j := 0; j < d; j++ {
		tie := j%7 == 3
		p := kernelPalette[r.IntN(len(kernelPalette))]
		for i := range vecs {
			if !tie && r.IntN(3) > 0 {
				continue
			}
			if !tie {
				p = kernelPalette[r.IntN(len(kernelPalette))]
			}
			vecs[i][j] = p
		}
	}
	return vecs
}

// requireSameBits fails unless got and want agree bit for bit.
func requireSameBits(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s coord %d: %v (%#x), want %v (%#x)", label, j,
				got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestTileKernelBitIdentical holds the AVX2 tile kernel to the pure-Go
// paths bit for bit, for every n = 3 … tileVecMaxN and every trim m
// with 2m < n, on tileInputs' columns. The tile itself is compared to
// sortTile's at every width from 1 to 9 lanes and a full gather tile:
// it must reduce exactly the whole groups of four. Run, whose staged
// gather reduces the lanes past them per column, is compared on both
// kernels at lengths of every residue mod 4, and past the parallel
// work volume at Workers 1, 2 and 3, whose chunks start off the 4-lane
// grid; it reads DensePayload members in place, and they must leave
// byte-unchanged.
func TestTileKernelBitIdentical(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 on this CPU: the pure-Go tile is the only one")
	}
	r := randx.New(46)
	for n := 3; n <= tileVecMaxN; n++ {
		// big crosses minParallelWork, with chunk starts ⌈big/2⌉ and
		// ⌈big/3⌉ off the 4-lane grid.
		big := minParallelWork/n + 1
		for big%4 == 0 || (big+1)/2%4 == 0 || (big+2)/3%4 == 0 {
			big++
		}
		for m := 1; 2*m < n; m++ {
			vecs := tileInputs(r, n, payloadGatherTile)
			for w := 1; w <= payloadGatherTile; w++ {
				if w > 9 && w < payloadGatherTile {
					continue
				}
				rows := make([][]float64, n)
				for i, v := range vecs {
					rows[i] = slices.Clone(v[:w])
				}
				want, got := make([]float64, w), make([]float64, w)
				tileForm{n: n, m: m}.reduce(rows, want)
				done := tileForm{n: n, m: m, vec: true}.reduce(vecs, got)
				if done != w&^3 {
					t.Fatalf("tile n=%d m=%d width %d: reduced %d lanes, want %d", n, m, w, done, w&^3)
				}
				requireSameBits(t, got[:done], want[:done], fmt.Sprintf("tile n=%d m=%d width %d", n, m, w))
			}

			for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 517, 518, 519, 520, big} {
				vecs := tileInputs(r, n, d)
				before := cloneVecs(vecs)
				for workers := 1; workers <= 3; workers++ {
					if workers > 1 && d != big {
						break
					}
					q := Request{Rule: TrimmedMean{Trim: m}, Views: denseViews(vecs), Workers: workers}
					got := Run(q).Out
					restore := SetTileAVX2(false)
					want := Run(q).Out
					restore()
					requireSameBits(t, got, want, fmt.Sprintf("Run n=%d m=%d d=%d workers=%d", n, m, d, workers))
				}
				requireUnchanged(t, vecs, before)
			}
		}
	}
}

// weightPalette is the arbitrary positive finite weights the weighted
// tile is tested under besides sched.Weight's staleness down-weights:
// the smallest subnormal, the largest weight Run admits, and values
// whose products and sums round.
var weightPalette = []float64{1, 0.5, 1.0 / 3, 0.1, 2, 3, 7.25, 1e-3, 5e-324, 1e300}

// weightedTileInputs is tileInputs with every 5th column drawn from
// {−0, +0, 1, 2} member by member, so most of those columns hold ties
// between members of unequal weight, which trim in input order.
func weightedTileInputs(r *randx.RNG, n, d int) [][]float64 {
	vecs := tileInputs(r, n, d)
	few := []float64{math.Copysign(0, -1), 0, 1, 2}
	for j := 1; j < d; j += 5 {
		for _, v := range vecs {
			v[j] = few[r.IntN(len(few))]
		}
	}
	return vecs
}

// TestWeightedTileBitIdentical holds the AVX2 kernel's weighted form to
// the per-column trimmedMeanOf bit for bit, for every n = 3 …
// tileVecMaxN and every trim m with 2m < n, on weightedTileInputs'
// columns — NaN, ±Inf, ±0, subnormals, every 7th column a tie across
// all members and every 5th a few values tied between members — under
// three kinds of weights: staleness down-weights sched.Weight(0 … 3),
// arbitrary positive finite weights drawn from weightPalette (which
// mixes the extremes into one member set) and all ones. The tile is
// compared at every width from 1 to 9 lanes and a full gather tile; at
// all-ones weights it must also equal the unweighted tile. Run's
// weighted path is held to the pure-Go one at lengths of every residue
// mod 4, past the parallel work volume at Workers 1, 2 and 3, and must
// leave its DensePayload members byte-unchanged.
func TestWeightedTileBitIdentical(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 on this CPU: weighted tiles reduce column by column")
	}
	r := randx.New(52)
	for n := 3; n <= tileVecMaxN; n++ {
		big := minParallelWork/n + 1
		for big%4 == 0 || (big+1)/2%4 == 0 || (big+2)/3%4 == 0 {
			big++
		}
		stale, arbitrary := make([]float64, n), make([]float64, n)
		for i := range stale {
			stale[i] = sched.Weight(r.IntN(4))
			arbitrary[i] = weightPalette[r.IntN(len(weightPalette))]
		}
		stale[r.IntN(n)] = 0.5 // never all ones
		for m := 1; 2*m < n; m++ {
			for _, ws := range []struct {
				name    string
				weights []float64
			}{{"staleness", stale}, {"arbitrary", arbitrary}, {"ones", onesWeights(n)}} {
				label := fmt.Sprintf("n=%d m=%d %s weights %v", n, m, ws.name, ws.weights)
				vecs := weightedTileInputs(r, n, payloadGatherTile)
				for w := 1; w <= payloadGatherTile; w++ {
					if w > 9 && w < payloadGatherTile {
						continue
					}
					got := make([]float64, w)
					done := tileForm{n: n, m: m, vec: true, weights: ws.weights}.reduce(vecs, got)
					if done != w&^3 {
						t.Fatalf("%s width %d: reduced %d lanes, want %d", label, w, done, w&^3)
					}
					want := reduceEachColumn(TrimmedMean{Trim: m}.kernel(n, ws.weights), vecs, done)
					requireSameBits(t, got[:done], want, fmt.Sprintf("%s width %d", label, w))
					if ws.name == "ones" {
						tileForm{n: n, m: m, vec: true}.reduce(vecs, want)
						requireSameBits(t, got[:done], want, fmt.Sprintf("%s width %d against the unweighted tile", label, w))
					}
				}
				if ws.name == "ones" {
					continue
				}
				for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 517, 518, 519, 520, big} {
					vecs := weightedTileInputs(r, n, d)
					before := cloneVecs(vecs)
					for workers := 1; workers <= 3; workers++ {
						if workers > 1 && d != big {
							break
						}
						q := Request{Rule: TrimmedMean{Trim: m}, Views: denseViews(vecs), Weights: ws.weights, Workers: workers}
						got := Run(q).Out
						restore := SetTileAVX2(false)
						want := Run(q).Out
						restore()
						requireSameBits(t, got, want, fmt.Sprintf("Run %s d=%d workers=%d", label, d, workers))
					}
					requireUnchanged(t, vecs, before)
				}
			}
		}
	}
}

// TestSparseTileArmsBitIdentical holds the all-sparse gather's tile
// arm to its column arm and to the reference bit for bit, on both tile
// kernels, for every n = 3 … tileVecMaxN and every trim m with 2m < n,
// unweighted and under staleness weights (there against the per-column
// kernel). The inputs are tileInputs' — NaN, ±Inf, ±0, subnormals,
// ties — thinned tile by tile to between 0 and 256 entries per member,
// so the default gates also send the tiles of one chunk down both
// arms; d is a multiple of neither 4 nor the tile. At n = 8, past the
// parallel work volume, the arms are compared at Workers 1, 2 and 3
// too, whose chunks start off the tile grid.
func TestSparseTileArmsBitIdentical(t *testing.T) {
	keep := []int{0, 1, 3, 4, 6, 16, 64, 256} // entries per member in tile t, about
	thin := func(r *randx.RNG, vecs [][]float64) {
		for j := range vecs[0] {
			k := keep[j/payloadGatherTile%len(keep)]
			tie := j%7 == 3 // tileInputs' tie columns thin whole
			drop := r.IntN(payloadGatherTile) >= k
			for _, v := range vecs {
				if !tie {
					drop = r.IntN(payloadGatherTile) >= k
				}
				if drop {
					v[j] = 0
				}
			}
		}
	}
	r := randx.New(48)
	for n := 3; n <= tileVecMaxN; n++ {
		for m := 1; 2*m < n; m++ {
			vecs := tileInputs(r, n, len(keep)*payloadGatherTile+3)
			thin(r, vecs)
			paths := kernelPaths(t, TrimmedMean{Trim: m}, vecs)
			want := paths["reference"]
			for path, got := range paths {
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("n=%d m=%d %s coord %d: %v != reference %v", n, m, path, j, got[j], want[j])
					}
				}
			}
			paths = weightedKernelPaths(t, TrimmedMean{Trim: m}, vecs, stalenessWeights(r, n, 2))
			want = paths["column"]
			for path, got := range paths {
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("n=%d m=%d %s coord %d: %v != column %v", n, m, path, j, got[j], want[j])
					}
				}
			}
		}
	}
	const n = 8
	vecs := tileInputs(r, n, minParallelWork/n+1)
	thin(r, vecs)
	views := make([]compress.Payload, n)
	for i, v := range vecs {
		views[i] = sparseView(t, v)
	}
	want := Run(Request{Rule: TrimmedMean{Trim: 2}, Views: denseViews(vecs)}).Out
	for _, tileMin := range []int{0, payloadGatherTile + 1} {
		restore := SetSparseTileMin(tileMin)
		for workers := 1; workers <= 3; workers++ {
			got := Run(Request{Rule: TrimmedMean{Trim: 2}, Views: views, Workers: workers}).Out
			requireSameBits(t, got, want, fmt.Sprintf("n=%d gate %d workers=%d", n, tileMin, workers))
		}
		restore()
	}
}

// TestFilterAllocs: a steady-state client filter — Run under
// TrimmedMean{Trim: 1} over 5 DensePayload views at d = 1e5, reusing
// Dst — allocates at most 3 objects (2 when this gate was written), so
// a tile scratch that escapes the chunk pool, one allocation per 256
// coordinates, fails it by hundreds. So does a steady-state async
// server round at dist_wide_async's shape: trim:0.2 over 8 topk:0.1
// views at d = 1e5 weighted by staleness, reusing Dst.
func TestFilterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const d = 100_000
	server, _ := encodeViews(t, "topk:0.1", randomVecs(randx.New(6), 8, d), 7)
	for _, q := range []Request{
		{Rule: TrimmedMean{Trim: 1}, Views: denseViews(randomVecs(randx.New(5), 5, d))},
		{Rule: TrimmedMean{Beta: 0.2}, Views: server, Weights: serverStaleWeights()},
	} {
		q.Dst, q.Workers = make([]float64, d), 1
		Run(q) // fill the chunk pool
		if a := testing.AllocsPerRun(20, func() { Run(q) }); a > 3 {
			t.Fatalf("%d views, weights %v: Run allocates %v objects, want <= 3", len(q.Views), q.Weights, a)
		}
	}
}

// TestGatherMemoryBound pins the flat gather's memory bound (DESIGN.md
// §6): beyond the uploads themselves, a cold Run — chunk pool emptied
// by two collections — over n views of dimension d allocates at most
// 16·n·tile bytes of staged scratch per worker plus the 8·d output,
// far below the 8·n·d of a K×d matrix. Dense views take the staged
// gather, topk views the sparse one, and the trimmed mean (n past
// networkMaxN) and the median reduce column by column.
func TestGatherMemoryBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const n, d, workers = 100, 20_000, 2
	bound := uint64(workers*16*n*payloadGatherTile + 8*d + 1<<14)
	if matrix := uint64(8 * n * d); bound > matrix/10 {
		t.Fatalf("bound %d B is not far below the K×d matrix's %d B", bound, matrix)
	}
	vecs := randomVecs(randx.New(13), n, d)
	for _, spec := range []string{"dense", "topk:0.01"} {
		views, _ := encodeViews(t, spec, vecs, 21)
		for _, rule := range []Rule{TrimmedMean{Beta: 0.2}, CoordinateMedian{}} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			res := Run(Request{Rule: rule, Views: views, Workers: workers})
			runtime.ReadMemStats(&after)
			if !res.Fused {
				t.Fatalf("%s/%s: expected the fused path", spec, rule.Name())
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > bound {
				t.Fatalf("%s/%s: a cold Run allocated %d B, want <= %d B", spec, rule.Name(), got, bound)
			}
		}
	}
}
