package aggregate

import (
	"math"
	"testing"
	"testing/quick"

	"fedms/internal/randx"
)

// sqDistTo builds the synthetic oracle used throughout: squared L2
// distance to a target model. Deterministic, pure, minimized exactly
// at the target — a stand-in for "holdout loss" whose optimum we
// control.
func sqDistTo(target []float64) LossEval {
	return func(m []float64) float64 {
		s := 0.0
		for i, v := range m {
			d := v - target[i]
			s += d * d
		}
		return s
	}
}

// lossRules enumerates the loss-oracle rules for uniform checks.
func lossRules() []LossRule {
	return []LossRule{FedGreed{}, LossCluster{}}
}

// TestFedGreedOraclePicksBenignPrefix: with an oracle minimized at the
// benign centroid, FedGreed must exclude the high-loss Byzantine
// candidates no matter how many arrive, returning (here) exactly the
// benign average.
func TestFedGreedOraclePicksBenignPrefix(t *testing.T) {
	benign := [][]float64{{0.1, 0}, {-0.1, 0}, {0, 0.1}, {0, -0.1}}
	byz := [][]float64{{100, 100}, {-90, 80}}
	vecs := append(append([][]float64{}, benign...), byz...)
	target := []float64{0, 0}

	out, evals := AggregateWithOracleInto(FedGreed{}, nil, vecs, sqDistTo(target))
	if evals != 2*len(vecs) {
		t.Fatalf("fedgreed made %d oracle evals, want 2n = %d", evals, 2*len(vecs))
	}
	// The benign vectors average to exactly (0,0), the oracle optimum;
	// any prefix containing a Byzantine vector scores far worse.
	for j, v := range out {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("coord %d: %v, want the benign average 0", j, v)
		}
	}
}

// TestLossClusterOracleSplitsClusters: LossCluster must cut the sorted
// loss sequence between the benign cluster and the Byzantine cluster
// and average only the former.
func TestLossClusterOracleSplitsClusters(t *testing.T) {
	benign := [][]float64{{0.2, 0}, {-0.2, 0}, {0, 0.2}, {0, -0.2}}
	byz := [][]float64{{50, 50}, {-60, 40}}
	vecs := append(append([][]float64{}, benign...), byz...)

	out, evals := AggregateWithOracleInto(LossCluster{}, nil, vecs, sqDistTo([]float64{0, 0}))
	if evals != len(vecs) {
		t.Fatalf("losscluster made %d oracle evals, want n = %d", evals, len(vecs))
	}
	for j, v := range out {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("coord %d: %v, want the benign-cluster average 0", j, v)
		}
	}
}

// TestLossRuleNilOracleIsFallback: a nil eval must reduce bit-for-bit
// to the geometry-only Aggregate (the CoordinateMedian fallback), with
// zero counted evals — the contract that makes a loss rule safe to
// select on runtimes without a holdout split.
func TestLossRuleNilOracleIsFallback(t *testing.T) {
	r := randx.New(41)
	vecs := randomVecs(r, 7, 5)
	for _, rule := range lossRules() {
		out, evals := AggregateWithOracleInto(rule, nil, vecs, nil)
		if evals != 0 {
			t.Fatalf("%s: nil oracle counted %d evals", rule.Name(), evals)
		}
		want := rule.Aggregate(vecs)
		for j := range want {
			if math.Float64bits(out[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s coord %d: oracle-less dispatch %v != Aggregate %v",
					rule.Name(), j, out[j], want[j])
			}
		}
	}
}

// TestGeometryRuleIgnoresOracle: a non-LossRule through the oracle
// dispatcher must behave exactly like plain Aggregate and never call
// the eval.
func TestGeometryRuleIgnoresOracle(t *testing.T) {
	r := randx.New(42)
	vecs := randomVecs(r, 6, 4)
	poison := func(m []float64) float64 { t.Fatal("geometry rule called the oracle"); return 0 }
	out, evals := AggregateWithOracleInto(TrimmedMean{Beta: 0.2}, nil, vecs, poison)
	if evals != 0 {
		t.Fatalf("counted %d evals for a geometry rule", evals)
	}
	want := TrimmedMean{Beta: 0.2}.Aggregate(vecs)
	for j := range want {
		if out[j] != want[j] {
			t.Fatalf("coord %d: %v != %v", j, out[j], want[j])
		}
	}
}

// TestLossRuleOraclePermutationInvariant: input order must not change
// the oracle-path output — candidates are reordered by (loss, lexLess)
// before any arithmetic, so network arrival order cannot leak in.
func TestLossRuleOraclePermutationInvariant(t *testing.T) {
	for _, rule := range lossRules() {
		rule := rule
		t.Run(rule.Name(), func(t *testing.T) {
			err := quick.Check(func(seed uint64) bool {
				r := randx.New(seed)
				vecs := randomVecs(r, 8, 5)
				eval := sqDistTo(vecs[0])
				a, _ := AggregateWithOracleInto(rule, nil, vecs, eval)
				perm := randx.Perm(r, len(vecs))
				shuffled := make([][]float64, len(vecs))
				for i, p := range perm {
					shuffled[i] = vecs[p]
				}
				b, _ := AggregateWithOracleInto(rule, nil, shuffled, eval)
				for j := range a {
					if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
						return false
					}
				}
				return true
			}, &quick.Config{MaxCount: 25})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLossRuleOracleFreshOutput: the oracle path must return a fresh
// vector and leave the inputs untouched, like every other rule.
func TestLossRuleOracleFreshOutput(t *testing.T) {
	r := randx.New(43)
	for _, rule := range lossRules() {
		vecs := randomVecs(r, 7, 4)
		snapshot := make([][]float64, len(vecs))
		for i, v := range vecs {
			snapshot[i] = append([]float64(nil), v...)
		}
		out, _ := AggregateWithOracleInto(rule, nil, vecs, sqDistTo(vecs[1]))
		for j := range out {
			out[j] = 1e30
		}
		for i := range vecs {
			for j := range vecs[i] {
				if vecs[i][j] != snapshot[i][j] {
					t.Fatalf("%s oracle path aliased or mutated input %d", rule.Name(), i)
				}
			}
		}
	}
}

// TestLossRuleSingleInput: n = 1 must be the identity for both rules
// (nothing to exclude), on both paths.
func TestLossRuleSingleInput(t *testing.T) {
	v := [][]float64{{1.5, -2, 0.25}}
	for _, rule := range lossRules() {
		out, _ := AggregateWithOracleInto(rule, nil, v, sqDistTo([]float64{0, 0, 0}))
		for j := range v[0] {
			if out[j] != v[0][j] {
				t.Fatalf("%s(single input) = %v", rule.Name(), out)
			}
		}
	}
}

// TestAggregatePayloadsWithOracleMatchesDense: the payload entry point
// must densify the views and agree bit-for-bit with the dense oracle
// path, report fused=false (densify-first is a fallback), and count
// the same oracle evals.
func TestAggregatePayloadsWithOracleMatchesDense(t *testing.T) {
	r := randx.New(44)
	vecs := randomVecs(r, 6, 300)
	for _, spec := range []string{"dense", "topk:0.25", "q8"} {
		views, dense := encodeViews(t, spec, vecs, 99)
		eval := sqDistTo(dense[0])
		for _, rule := range lossRules() {
			want, wantEvals := AggregateWithOracleInto(rule, nil, dense, eval)
			got, fused, evals := AggregatePayloadsWithOracle(rule, views, eval)
			if fused {
				t.Fatalf("%s/%s: oracle path reported fused", rule.Name(), spec)
			}
			if evals != wantEvals {
				t.Fatalf("%s/%s: %d evals, want %d", rule.Name(), spec, evals, wantEvals)
			}
			assertBitIdentical(t, rule.Name()+"/"+spec, got, want)
		}
	}
}

// TestNoFuseBlocksOraclePath: wrapping a loss rule in NoFuse hides the
// LossRule interface, so the dispatcher must take the geometry
// fallback with zero oracle evals — the documented escape hatch.
func TestNoFuseBlocksOraclePath(t *testing.T) {
	r := randx.New(45)
	vecs := randomVecs(r, 5, 64)
	views, dense := encodeViews(t, "dense", vecs, 7)
	out, fused, evals := AggregatePayloadsWithOracle(NoFuse{Rule: FedGreed{}}, views, sqDistTo(dense[0]))
	if evals != 0 || fused {
		t.Fatalf("NoFuse path: evals=%d fused=%v, want 0/false", evals, fused)
	}
	want := FedGreed{}.Aggregate(dense)
	assertBitIdentical(t, "nofuse(fedgreed)", out, want)
}

// TestBestLossSplit: exact 2-means on a line — the cut must separate
// the two level sets, and ties keep the smallest cut.
func TestBestLossSplit(t *testing.T) {
	cases := []struct {
		losses []float64
		want   int
	}{
		{[]float64{1, 1, 1, 10, 10}, 3},
		{[]float64{0, 0.1, 0.2, 100}, 3},
		{[]float64{1, 2}, 1},
		{[]float64{0, 0, 5, 5}, 2},
		{[]float64{0, 10, 20, 30}, 2}, // evenly spread: balanced cut minimizes SSE
		{[]float64{1, 1, 1, 1}, 1},    // flat ties: first minimal cut wins
	}
	for _, tc := range cases {
		if got := bestLossSplit(tc.losses); got != tc.want {
			t.Errorf("bestLossSplit(%v) = %d, want %d", tc.losses, got, tc.want)
		}
	}
}

// TestLossOrderNaNLast: a buggy oracle returning NaN must sort that
// candidate after every real loss, deterministically, instead of
// poisoning the comparison order.
func TestLossOrderNaNLast(t *testing.T) {
	vecs := [][]float64{{3}, {1}, {2}}
	eval := func(m []float64) float64 {
		if m[0] == 1 {
			return math.NaN()
		}
		return m[0]
	}
	order, losses := lossOrder(vecs, eval)
	if order[len(order)-1] != 1 {
		t.Fatalf("NaN candidate ordered at %v, want last (order %v)", order, order)
	}
	if !math.IsInf(losses[len(losses)-1], 1) {
		t.Fatalf("NaN loss stored as %v, want +Inf", losses[len(losses)-1])
	}
}

// TestLossRulePartialParticipation: the degraded-round guarantee for
// the loss rules, mirroring TestTrimmedMeanPartialParticipation. For
// ANY quorum P' ≥ 2B+1 of which at most B members are Byzantine
// extremes, an oracle centered on the benign region must keep the
// output inside the benign coordinate-wise [min, max] box: FedGreed
// averages a prefix of low-loss (benign) candidates, LossCluster the
// low-loss cluster, and an extreme candidate's loss dominates both
// orderings.
func TestLossRulePartialParticipation(t *testing.T) {
	const (
		pTotal = 7
		b      = 2
		d      = 5
	)
	for _, rule := range lossRules() {
		rule := rule
		t.Run(rule.Name(), func(t *testing.T) {
			err := quick.Check(func(seed uint64) bool {
				r := randx.New(seed)
				pPrime := 2*b + 1 + r.IntN(pTotal-2*b)
				byzCount := r.IntN(b + 1)

				benign := randomVecs(r, pPrime-byzCount, d)
				center := make([]float64, d)
				for _, v := range benign {
					for j := range v {
						center[j] += v[j] / float64(len(benign))
					}
				}
				vecs := append([][]float64{}, benign...)
				for i := 0; i < byzCount; i++ {
					v := make([]float64, d)
					for j := range v {
						v[j] = 1e9 * float64(1-2*((i+j)%2))
					}
					vecs = append(vecs, v)
				}
				perm := randx.Perm(r, len(vecs))
				shuffled := make([][]float64, len(vecs))
				for i, p := range perm {
					shuffled[i] = vecs[p]
				}

				got, _ := AggregateWithOracleInto(rule, nil, shuffled, sqDistTo(center))
				for j := 0; j < d; j++ {
					lo, hi := math.Inf(1), math.Inf(-1)
					for _, v := range benign {
						lo = math.Min(lo, v[j])
						hi = math.Max(hi, v[j])
					}
					if got[j] < lo-1e-9 || got[j] > hi+1e-9 {
						t.Logf("%s P'=%d byz=%d coord %d: %v outside benign [%v, %v]",
							rule.Name(), pPrime, byzCount, j, got[j], lo, hi)
						return false
					}
				}
				return true
			}, &quick.Config{MaxCount: 200})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
