package aggregate

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"fedms/internal/randx"
)

// aggregateWithOracle is Run over dense vectors with a holdout-loss
// oracle, returning the aggregate and the oracle's call count.
func aggregateWithOracle(r Rule, vecs [][]float64, eval LossEval) ([]float64, int) {
	res := Run(Request{Rule: r, Views: denseViews(vecs), Oracle: eval})
	return res.Out, res.OracleEvals
}

// weightedDense runs r's weighted kernel over dense vectors, keeping
// all-ones weights on the weighted path (run, not Run).
func weightedDense(r Rule, vecs [][]float64, weights []float64) []float64 {
	return Request{Rule: r, Views: denseViews(vecs), Weights: weights}.run().Out
}

func TestMeanSimple(t *testing.T) {
	got := Mean{}.Aggregate([][]float64{{1, 2}, {3, 6}})
	if got[0] != 2 || got[1] != 4 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestMeanPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mean{}.Aggregate(nil)
}

func TestMeanPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mean{}.Aggregate([][]float64{{1}, {1, 2}})
}

func TestTrimmedMeanPaperExample(t *testing.T) {
	// From §IV-B: trmean_0.2{1,2,3,4,5} removes 1 and 5, averages to 3.
	got := TrimmedMean{Beta: 0.2}.Aggregate([][]float64{{1}, {2}, {3}, {4}, {5}})
	if got[0] != 3 {
		t.Fatalf("trmean_0.2 = %v, want 3", got[0])
	}
}

func TestTrimmedMeanTrimCount(t *testing.T) {
	tests := []struct {
		beta float64
		n    int
		want int
	}{
		{0.2, 10, 2},
		{0.1, 10, 1},
		{0.3, 10, 3},
		{0, 10, 0},
		{0.2, 5, 1},
	}
	for _, tt := range tests {
		if got := (TrimmedMean{Beta: tt.beta}).TrimCount(tt.n); got != tt.want {
			t.Errorf("TrimCount(beta=%v, n=%d) = %d, want %d", tt.beta, tt.n, got, tt.want)
		}
	}
}

func TestTrimmedMeanPanicsWhenNothingLeft(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TrimmedMean{Beta: 0.5}.Aggregate([][]float64{{1}, {2}})
}

func TestTrimmedMeanZeroBetaIsMean(t *testing.T) {
	r := randx.New(1)
	vecs := randomVecs(r, 7, 13)
	a := TrimmedMean{Beta: 0}.Aggregate(vecs)
	b := Mean{}.Aggregate(vecs)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("trmean_0 must equal mean")
		}
	}
}

func randomVecs(r *randx.RNG, n, d int) [][]float64 {
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, d)
		randx.Normal(r, vecs[i], 0, 1)
	}
	return vecs
}

// TestTrimmedMeanLemma2OrderStatistics verifies the order-statistics
// sandwich at the core of Lemma 2: for P scalars of which B < P/2 are
// arbitrarily tampered, the sorted tampered values q satisfy
// p_{k-B} <= q_k <= p_{k+B}, so the trimmed mean of the tampered set is
// bracketed by trimmed means of the benign set.
func TestTrimmedMeanLemma2OrderStatistics(t *testing.T) {
	err := quick.Check(func(seed uint64, braw uint8) bool {
		const p = 11
		b := 1 + int(braw)%4 // B in [1,4], < P/2
		r := randx.New(seed)
		benign := make([]float64, p)
		randx.Normal(r, benign, 0, 5)

		tampered := append([]float64(nil), benign...)
		for i := 0; i < b; i++ {
			tampered[r.IntN(p)] = 1e6 * (r.Float64()*2 - 1)
		}

		ps := append([]float64(nil), benign...)
		qs := append([]float64(nil), tampered...)
		sort.Float64s(ps)
		sort.Float64s(qs)
		for k := b; k <= p-b-1; k++ {
			if qs[k] < ps[k-b]-1e-9 || qs[k] > ps[k+b]+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTrimmedMeanByzantineBounded: with trim m >= B, the trimmed mean of
// a tampered ensemble stays within [min benign, max benign] per
// coordinate — the feasibility property Fed-MS needs from its filter.
func TestTrimmedMeanByzantineBounded(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		const p, b, d = 10, 2, 6
		r := randx.New(seed)
		vecs := randomVecs(r, p, d)
		// Tamper B of them with huge values.
		for i := 0; i < b; i++ {
			randx.Uniform(r, vecs[r.IntN(p)], -1e9, 1e9)
		}
		got := TrimmedMean{Beta: float64(b) / float64(p)}.Aggregate(vecs)
		// Bounds from the *untampered* remainder are unknowable here, so
		// check the weaker but still Byzantine-excluding property: the
		// result is bounded by the (m+1)-th order statistics, which at
		// most B tampered values cannot push outside the benign span by
		// construction of the trim.
		for j := 0; j < d; j++ {
			col := make([]float64, p)
			for i, v := range vecs {
				col[i] = v[j]
			}
			sort.Float64s(col)
			lo, hi := col[b], col[p-1-b]
			if !(got[j] >= lo-1e-9 && got[j] <= hi+1e-9) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTrimmedMeanPermutationInvariant: aggregation must not depend on
// input order.
func TestTrimmedMeanPermutationInvariant(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := randx.New(seed)
		vecs := randomVecs(r, 9, 5)
		a := TrimmedMean{Beta: 0.2}.Aggregate(vecs)
		perm := randx.Perm(r, len(vecs))
		shuffled := make([][]float64, len(vecs))
		for i, p := range perm {
			shuffled[i] = vecs[p]
		}
		b := TrimmedMean{Beta: 0.2}.Aggregate(shuffled)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTrimmedMeanIgnoresOutlierMagnitude: the filtered result must be
// identical whether a Byzantine value is 10^3 or 10^12 — outliers are
// dropped, not dampened.
func TestTrimmedMeanIgnoresOutlierMagnitude(t *testing.T) {
	base := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
	tm := TrimmedMean{Beta: 0.25} // ⌈0.25·10⌉ = 3 dropped per side
	a := append([][]float64{{1e3}, {-1e3}}, base...)
	b := append([][]float64{{1e12}, {-1e12}}, base...)
	ra := tm.Aggregate(a)
	rb := tm.Aggregate(b)
	if ra[0] != rb[0] {
		t.Fatalf("outlier magnitude leaked: %v vs %v", ra[0], rb[0])
	}
}

func TestMedianOddEven(t *testing.T) {
	odd := CoordinateMedian{}.Aggregate([][]float64{{5}, {1}, {3}})
	if odd[0] != 3 {
		t.Fatalf("odd median = %v", odd[0])
	}
	even := CoordinateMedian{}.Aggregate([][]float64{{1}, {2}, {3}, {10}})
	if even[0] != 2.5 {
		t.Fatalf("even median = %v", even[0])
	}
}

func TestMedianRobustToOutliers(t *testing.T) {
	got := CoordinateMedian{}.Aggregate([][]float64{{1}, {2}, {3}, {1e12}, {-1e12}})
	if got[0] != 2 {
		t.Fatalf("median = %v", got[0])
	}
}

func TestKrumPicksClusterMember(t *testing.T) {
	// 6 vectors near the origin, 2 far away: Krum must pick a near one.
	r := randx.New(3)
	vecs := randomVecs(r, 6, 4)
	far := [][]float64{{100, 100, 100, 100}, {-100, -100, -100, -100}}
	all := append(vecs, far...)
	k := Krum{F: 2}
	sel := k.Select(all)
	if sel >= 6 {
		t.Fatalf("Krum selected outlier index %d", sel)
	}
	out := k.Aggregate(all)
	for i := range out {
		if math.Abs(out[i]) > 10 {
			t.Fatalf("Krum output contains outlier values: %v", out)
		}
	}
}

func TestKrumReturnsExactInput(t *testing.T) {
	vecs := [][]float64{{1, 2}, {1.1, 2.1}, {0.9, 1.9}, {50, 50}}
	out := Krum{F: 1}.Aggregate(vecs)
	found := false
	for _, v := range vecs {
		if v[0] == out[0] && v[1] == out[1] {
			found = true
		}
	}
	if !found {
		t.Fatal("Krum must return one of its inputs")
	}
}

func TestKrumSingleInput(t *testing.T) {
	out := Krum{F: 0}.Aggregate([][]float64{{7, 8}})
	if out[0] != 7 || out[1] != 8 {
		t.Fatalf("Krum single input = %v", out)
	}
}

func TestGeoMedianMatchesMedianIn1D(t *testing.T) {
	// In 1-D the geometric median is the median.
	got := GeoMedian{}.Aggregate([][]float64{{0}, {1}, {2}, {3}, {100}})
	if math.Abs(got[0]-2) > 0.1 {
		t.Fatalf("geo median = %v, want ~2", got[0])
	}
}

func TestGeoMedianRobust(t *testing.T) {
	r := randx.New(9)
	vecs := randomVecs(r, 8, 3)
	clean := GeoMedian{}.Aggregate(vecs)
	poisoned := append(append([][]float64{}, vecs...), []float64{1e9, 1e9, 1e9})
	robust := GeoMedian{}.Aggregate(poisoned)
	mean := Mean{}.Aggregate(poisoned)
	distRobust := dist(clean, robust)
	distMean := dist(clean, mean)
	if distRobust > distMean/100 {
		t.Fatalf("geo median moved %v vs mean %v — not robust", distRobust, distMean)
	}
}

// TestGeoMedianConvergesIndependentOfEps: regression for the coupling
// of Weiszfeld's smoothing constant and its stopping rule. Eps only
// smooths the 1/‖·‖ weights; convergence is governed by Tol. Under the
// old shared field, a large Eps silently stopped the iteration after
// one step, far from the geometric median.
func TestGeoMedianConvergesIndependentOfEps(t *testing.T) {
	vecs := [][]float64{{0}, {1}, {2}, {3}, {100}}
	got := GeoMedian{Eps: 1.0}.Aggregate(vecs)
	// One manual Weiszfeld step from the returned point must barely move
	// it — i.e. the iteration genuinely converged rather than bailing out
	// because the step size dipped below Eps.
	step := func(z float64) float64 {
		num, den := 0.0, 0.0
		for _, v := range vecs {
			w := 1 / (math.Abs(v[0]-z) + 1.0)
			num += w * v[0]
			den += w
		}
		return num / den
	}
	if moved := math.Abs(step(got[0]) - got[0]); moved > 1e-4 {
		t.Fatalf("GeoMedian{Eps: 1} stopped %v away from its fixed point — Eps leaked into the stopping rule", moved)
	}
}

// TestGeoMedianTolKnob: Tol is the convergence tolerance. A huge Tol
// stops after the first step (far from the 1-D median ≈ 2); the default
// converges close to it.
func TestGeoMedianTolKnob(t *testing.T) {
	vecs := [][]float64{{0}, {1}, {2}, {3}, {100}}
	coarse := GeoMedian{Tol: 50}.Aggregate(vecs)
	fine := GeoMedian{}.Aggregate(vecs)
	if math.Abs(fine[0]-2) > 0.1 {
		t.Fatalf("default Tol stopped at %v, want ~2", fine[0])
	}
	if math.Abs(coarse[0]-2) < math.Abs(fine[0]-2) {
		t.Fatalf("Tol=50 (%v) should stop farther from the median than the default (%v)", coarse[0], fine[0])
	}
}

func dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// TestRulesDoNotMutateInputs is a shared contract check.
func TestRulesDoNotMutateInputs(t *testing.T) {
	rules := []Rule{Mean{}, TrimmedMean{Beta: 0.2}, CoordinateMedian{}, Krum{F: 1}, GeoMedian{}}
	r := randx.New(10)
	vecs := randomVecs(r, 6, 5)
	orig := make([][]float64, len(vecs))
	for i, v := range vecs {
		orig[i] = append([]float64(nil), v...)
	}
	for _, rule := range rules {
		rule.Aggregate(vecs)
		for i := range vecs {
			for j := range vecs[i] {
				if vecs[i][j] != orig[i][j] {
					t.Fatalf("%s mutated its input", rule.Name())
				}
			}
		}
	}
}

// TestRulesFixedPoint: aggregating n identical vectors returns that
// vector for every rule.
func TestRulesFixedPoint(t *testing.T) {
	rules := []Rule{Mean{}, TrimmedMean{Beta: 0.2}, CoordinateMedian{}, Krum{F: 1}, GeoMedian{}}
	v := []float64{1.5, -2.5, 3.5}
	vecs := [][]float64{v, v, v, v, v, v}
	for _, rule := range rules {
		got := rule.Aggregate(vecs)
		for i := range v {
			if math.Abs(got[i]-v[i]) > 1e-6 {
				t.Fatalf("%s of identical vectors = %v", rule.Name(), got)
			}
		}
	}
}
