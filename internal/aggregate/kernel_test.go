package aggregate

import (
	"math"
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
// ("dense", the reference), EncDense bytes, sparse views and a sparse/
// EncDense mix; the shard tree at 2 and 3 shards over EncDense and
// sparse rows; and the weighted kernels at weight ≡ 1 over dense and
// sparse views (run, not Run, so the ones are not dropped).
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
	return map[string][]float64{
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
// weighted kernels — across the insertion sort, the library sort past
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
		{5, TrimmedMean{Beta: 0.2}},  // P = 5, B = 1: insertion sort
		{7, TrimmedMean{Beta: 0.3}},  // B = 3 of 7
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
// every kernelPaths path must match the dense reference bit for bit.
// With the members at most TrimCount(n) of which draw arbitrary values
// (the rest finite), the trimmed mean and the median must stay inside
// the benign span.
func FuzzCoordinateKernels(f *testing.F) {
	f.Add([]byte{4, 0, 0, 2, 4, 4, 4, 4, 3, 8, 0, 1, 9})        // P = 5, d = 1
	f.Add([]byte{39, 0x57, 0x02, 1, 4, 2, 3, 4, 0, 1, 6, 7, 5}) // n = 40, d = 600
	f.Add([]byte{32, 0x2c, 0x01, 0, 1, 4, 4, 4, 2, 3, 9, 14})   // n = 33, d = 301
	f.Add([]byte{0, 0x00, 0x01, 7})                             // one member
	f.Add([]byte{5, 0xff, 0x00, 0, 0, 0, 1, 0, 0, 0, 0})        // mostly zeros: sparse skips
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
			want := paths["dense"]
			for path, got := range paths {
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("%s n=%d d=%d %s coord %d: %v (%#x) != dense %v (%#x)", rule.Name(), n, d, path, j,
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
