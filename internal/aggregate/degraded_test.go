package aggregate

import (
	"math"
	"testing"
	"testing/quick"

	"fedms/internal/randx"
)

// Degraded-quorum contracts (see DESIGN.md): in a Fed-MS round a
// client may hear back from only P' < P servers, so every selection
// rule must keep its Byzantine-exclusion guarantee at whatever quorum
// actually arrives, not just at the configured P. These properties
// mirror TestTrimmedMeanPartialParticipation for the Krum family: for
// ANY quorum P' ≥ 2b+1 containing at most b Byzantine extremes, the
// output must stay inside the benign coordinate-wise [min, max] box.
//
// Why the guarantee holds at b = 1: an extreme at ±1e9 is ~1e9 away
// from every benign vector, so its Krum score (sum of squared
// distances to its n−f−2 nearest neighbors) dominates every benign
// score and it always ranks last. Krum then never selects it,
// Multi-Krum's M ≤ n−1 head never reaches it, and Bulyan's iterated
// selection leaves it among the n−θ unchosen tail.

// degradedQuorum builds a shuffled P'-sized quorum with byzCount ≤ b
// extreme vectors and returns (quorum, benign originals).
func degradedQuorum(r *randx.RNG, pTotal, b, d int) (vecs, benign [][]float64) {
	pPrime := 2*b + 1 + r.IntN(pTotal-2*b)
	byzCount := r.IntN(b + 1)
	benign = randomVecs(r, pPrime-byzCount, d)
	vecs = append([][]float64{}, benign...)
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
	return shuffled, benign
}

// inBenignBox reports whether got is inside the per-coordinate
// [min, max] envelope of the benign vectors (tolerance 1e-9).
func inBenignBox(got []float64, benign [][]float64) bool {
	for j := range got {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range benign {
			lo = math.Min(lo, v[j])
			hi = math.Max(hi, v[j])
		}
		if !(got[j] >= lo-1e-9 && got[j] <= hi+1e-9) {
			return false
		}
	}
	return true
}

// TestKrumFamilyPartialParticipation: Krum, Multi-Krum and Bulyan must
// exclude up to b Byzantine extremes at every quorum size P' ∈
// [2b+1, P], exactly as they do at full participation.
func TestKrumFamilyPartialParticipation(t *testing.T) {
	const (
		pTotal = 9
		b      = 1
		d      = 5
	)
	rules := []Rule{Krum{F: b}, MultiKrum{F: b}, Bulyan{F: b}}
	for _, rule := range rules {
		rule := rule
		t.Run(rule.Name(), func(t *testing.T) {
			err := quick.Check(func(seed uint64) bool {
				r := randx.New(seed)
				vecs, benign := degradedQuorum(r, pTotal, b, d)
				got := rule.Aggregate(vecs)
				if !inBenignBox(got, benign) {
					t.Logf("%s P'=%d: %v escaped the benign box", rule.Name(), len(vecs), got)
					return false
				}
				return true
			}, &quick.Config{MaxCount: 200})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLossRulesDegradedQuorumFallback: without an oracle the loss
// rules fall back to the coordinate median, which holds the same
// benign-box guarantee at any honest-majority quorum — so a client
// that selected fedgreed/losscluster but lacks a holdout split still
// degrades to a Byzantine-robust filter, never to a plain mean.
func TestLossRulesDegradedQuorumFallback(t *testing.T) {
	const (
		pTotal = 9
		b      = 1
		d      = 5
	)
	for _, rule := range lossRules() {
		rule := rule
		t.Run(rule.Name(), func(t *testing.T) {
			err := quick.Check(func(seed uint64) bool {
				r := randx.New(seed)
				vecs, benign := degradedQuorum(r, pTotal, b, d)
				got, evals := aggregateWithOracle(rule, vecs, nil)
				if evals != 0 {
					t.Fatalf("nil oracle counted %d evals", evals)
				}
				if !inBenignBox(got, benign) {
					t.Logf("%s P'=%d: %v escaped the benign box", rule.Name(), len(vecs), got)
					return false
				}
				return true
			}, &quick.Config{MaxCount: 200})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
