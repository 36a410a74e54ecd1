package aggregate

import (
	"math"
	"testing"

	"fedms/internal/randx"
)

// onesWeights returns n weights of exactly 1.0 — the fresh-upload case
// the bit-identity contract pins.
func onesWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// stalenessWeights returns a deterministic mix of genuine staleness
// down-weights 1/(1+s).
func stalenessWeights(r *randx.RNG, n, maxStale int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(1+r.IntN(maxStale+1))
	}
	return w
}

// TestWeightedAggregationIdentityAtWeightOne is the weighted tier's
// core contract: at weight ≡ 1 every weighted kernel — dense, fused
// payload, and sharded — is bit-identical to its unweighted rule. The
// input-count sweep covers every kernel path: the m = 0 sum, the
// short-column insertion sort, the stable pair sort past 32 inputs,
// and the selection path (n ≥ 32 with 8m ≤ n). make verify runs this
// under the race detector as part of the async determinism stage.
func TestWeightedAggregationIdentityAtWeightOne(t *testing.T) {
	r := randx.New(53)
	dims := []int{64, 700, minParallelWork/5 + 1}
	// n = 8: insertion sort; n = 40 with beta .4 (m = 16): stable pair
	// sort past 32; n = 40 with beta .02 (m = 1): selection path;
	// n = 33 trim 0: plain sum.
	cases := []struct {
		n     int
		rules []Rule
	}{
		{8, []Rule{Mean{}, TrimmedMean{Beta: 0.2}, CoordinateMedian{}}},
		{9, []Rule{CoordinateMedian{}, TrimmedMean{Beta: 0.26}}},
		{40, []Rule{TrimmedMean{Beta: 0.4}, TrimmedMean{Beta: 0.02}, CoordinateMedian{}}},
		{33, []Rule{Mean{}, TrimmedMean{}, CoordinateMedian{}}},
	}
	for _, d := range dims {
		for _, tc := range cases {
			if d > 1000 && tc.n > 20 {
				continue // keep the big-dim pass fast; paths already covered at d ≤ 700
			}
			vecs := randomVecs(r, tc.n, d)
			ones := onesWeights(tc.n)
			for _, spec := range []string{"dense", "topk:0.25", "q8"} {
				views, _ := encodeViews(t, spec, vecs, 1234+uint64(d+tc.n))
				for _, raw := range tc.rules {
					for _, workers := range []int{1, 4} {
						rule := WithWorkers(raw, workers)
						label := spec + "/" + rule.Name() + "/d=" + itoa(d) + "/n=" + itoa(tc.n) + "/w=" + itoa(workers)

						want := rule.Aggregate(vecs)
						got := weightedDense(rule, vecs, ones)
						assertBitIdentical(t, label+"/dense-kernel", got, want)

						wantP := Run(Request{Rule: rule, Views: views}).Out
						res := Request{Rule: rule, Views: views, Weights: ones}.run()
						gotP, fused := res.Out, res.Fused
						if !fused {
							t.Fatalf("%s: weighted payload path not fused", label)
						}
						assertBitIdentical(t, label+"/payload-kernel", gotP, wantP)

						// run (not Run) keeps the ones on the weighted sharded
						// kernels; Run must then be free to drop them.
						res = Request{Rule: rule, Views: views, Weights: ones, Shards: 4}.run()
						if !res.Sharded {
							t.Fatalf("%s: weighted sharded path not taken", label)
						}
						assertBitIdentical(t, label+"/sharded-kernel", res.Out, wantP)
						assertBitIdentical(t, label+"/run", Run(Request{Rule: rule, Views: views, Weights: ones}).Out, wantP)
					}
				}
			}
		}
	}
}

// TestWeightedAggregationPathsAgree pins cross-path consistency at
// genuine staleness weights: the dense kernel, the fused payload
// kernel and the sharded kernel must produce bit-identical results for
// the same weighted member set (they share scan order and arithmetic
// by construction).
func TestWeightedAggregationPathsAgree(t *testing.T) {
	r := randx.New(59)
	for _, n := range []int{5, 12, 40} {
		for _, d := range []int{96, 700} {
			vecs := randomVecs(r, n, d)
			weights := stalenessWeights(randx.Split(7, "w"), n, 3)
			for _, spec := range []string{"dense", "topk:0.25", "q8"} {
				views, dense := encodeViews(t, spec, vecs, 99+uint64(d+n))
				rules := []Rule{Mean{}, TrimmedMean{Beta: 0.2, Workers: 2}, CoordinateMedian{Workers: 2}}
				for _, rule := range rules {
					label := spec + "/" + rule.Name() + "/n=" + itoa(n) + "/d=" + itoa(d)
					want := weightedDense(rule, dense, weights)
					res := Run(Request{Rule: rule, Views: views, Weights: weights})
					if !res.Fused {
						t.Fatalf("%s: not fused", label)
					}
					assertBitIdentical(t, label+"/payload", res.Out, want)
					res = Run(Request{Rule: rule, Views: views, Weights: weights, Shards: 3})
					if !res.Sharded {
						t.Fatalf("%s: not sharded", label)
					}
					assertBitIdentical(t, label+"/sharded", res.Out, want)
				}
			}
		}
	}
}

// TestWeightedMeanMatchesClosedForm sanity-checks the weighted mean
// against the Σwv/Σw definition on a tiny example.
func TestWeightedMeanMatchesClosedForm(t *testing.T) {
	vecs := [][]float64{{2, 10}, {4, 20}}
	weights := []float64{1, 0.5}
	got := weightedDense(Mean{}, vecs, weights)
	want0 := (1*2 + 0.5*4) / 1.5
	want1 := (1*10 + 0.5*20) / 1.5
	// The kernel multiplies by the reciprocal (like VecMean), so allow
	// an ulp against the closed form's true division.
	if math.Abs(got[0]-want0) > 1e-12 || math.Abs(got[1]-want1) > 1e-12 {
		t.Fatalf("weighted mean = %v, want [%v %v]", got, want0, want1)
	}
}

// TestWeightedTrimmedMeanDownWeightsStale pins the semantics: trimming
// is count-based (same values dropped as the unweighted rule) and the
// kept values average by weight, so a stale outlier-ish value pulls
// the aggregate less than a fresh one.
func TestWeightedTrimmedMeanDownWeightsStale(t *testing.T) {
	// n = 5, beta 0.2 → trim 1 per side: values 1..5 keep {2,3,4}.
	vecs := [][]float64{{1}, {2}, {3}, {4}, {5}}
	fresh := onesWeights(5)
	rule := TrimmedMean{Beta: 0.2}
	got := weightedDense(rule, vecs, fresh)
	if got[0] != 3 {
		t.Fatalf("weight-1 trimmed mean = %v, want 3", got[0])
	}
	// Staling the "4" input halves its pull: (2 + 3 + 0.5*4) / 2.5 = 2.8.
	stale := []float64{1, 1, 1, 0.5, 1}
	got = weightedDense(rule, vecs, stale)
	if math.Abs(got[0]-2.8) > 1e-15 {
		t.Fatalf("stale-weighted trimmed mean = %v, want 2.8", got[0])
	}
}

// TestWeightedMedianCrossesHalfWeight pins the weighted-rank
// definition on hand-computed examples, including the exact-half tie
// that averages the straddling pair.
func TestWeightedMedianCrossesHalfWeight(t *testing.T) {
	// Weights 3,1,1 over values 1,2,3: half = 2.5, cum crosses at the
	// first value.
	got := weightedDense(CoordinateMedian{}, [][]float64{{1}, {2}, {3}}, []float64{3, 1, 1})
	if got[0] != 1 {
		t.Fatalf("weighted median = %v, want 1", got[0])
	}
	// Weights 1,1 over values 1,3: cum hits exactly half at the first
	// value → midpoint 2, the unweighted even-n behavior.
	got = weightedDense(CoordinateMedian{}, [][]float64{{1}, {3}}, []float64{1, 1})
	if got[0] != 2 {
		t.Fatalf("weighted median tie = %v, want 2", got[0])
	}
}

// TestWeightedRejectsBadWeights pins the weight checks of Request.check.
func TestWeightedRejectsBadWeights(t *testing.T) {
	vecs := [][]float64{{1}, {2}}
	bad := [][]float64{
		{1},             // length mismatch
		{1, 0},          // zero
		{1, -0.5},       // negative
		{1, math.NaN()}, // NaN
		{1, math.Inf(1)},
	}
	for i, w := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: weights %v accepted, want panic", i, w)
				}
			}()
			weightedDense(Mean{}, vecs, w)
		}()
	}
}

// TestIsWeighted pins which rules the async scheduler may use —
// Coordinatewise, which replaced IsWeighted — and that weighted
// aggregation under any other rule, or a NoFuse-wrapped one, panics.
func TestIsWeighted(t *testing.T) {
	for _, r := range []Rule{Mean{}, TrimmedMean{}, CoordinateMedian{}} {
		if !Coordinatewise(r) {
			t.Errorf("Coordinatewise(%s) = false, want true", r.Name())
		}
		if Coordinatewise(NoFuse{r}) {
			t.Errorf("Coordinatewise(NoFuse{%s}) = true, want false", r.Name())
		}
	}
	views, _ := encodeViews(t, "dense", [][]float64{{1}, {2}, {3}}, 1)
	for _, name := range RuleNames() {
		r, err := ParseRule(name)
		if err != nil {
			t.Fatal(err)
		}
		switch r.(type) {
		case Mean, TrimmedMean, CoordinateMedian:
			if !Coordinatewise(r) {
				t.Errorf("Coordinatewise(%s) = false, want true", name)
			}
		default:
			if Coordinatewise(r) {
				t.Errorf("Coordinatewise(%s) = true, want false", name)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("weighted %s aggregated, want panic", name)
					}
				}()
				Request{Rule: r, Views: views, Weights: onesWeights(3)}.run()
			}()
		}
	}
}
