package node

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/obs"
)

// nanAttack disseminates an all-NaN model. Nothing on the wire rejects
// NaN: v1 dense frames carry raw float64 bits.
type nanAttack struct{}

func (nanAttack) Name() string      { return "nan" }
func (nanAttack) Equivocates() bool { return false }
func (nanAttack) Tamper(ctx *attack.Context) []float64 {
	v := make([]float64, len(ctx.TrueAgg))
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

// TestDistributedByzantineNaNTrimmed is the networked witness that the
// Fed-MS filter trims NaN: P = 5 servers, one of them Byzantine and
// sending NaN in every coordinate, trim:0.2 on every client. In strict
// and in tolerant mode the run finishes, no frame is skipped (the NaN
// model is well formed), and every client's filtered model lies inside
// the span of the benign servers' models it received — NaN-strict, so a
// NaN that slipped into the kept ranks fails the check.
func TestDistributedByzantineNaNTrimmed(t *testing.T) {
	const k, p, rounds, seed = 4, 5, 3, 73
	for _, tolerant := range []bool{false, true} {
		t.Run(map[bool]string{false: "strict", true: "tolerant"}[tolerant], func(t *testing.T) {
			cfg := testSpec(k, p, rounds, aggregate.TrimmedMean{Beta: 0.2}, seed)
			cfg.NumByzantine, cfg.Attack = 1, nanAttack{}
			reg := obs.NewRegistry()
			byz := -1
			var (
				mu              sync.Mutex
				observed, nanIn int
				violations      []string
			)
			onRound := func(client, round int, received map[int][]float64, filtered []float64) {
				mu.Lock()
				defer mu.Unlock()
				observed++
				if hasNaN(received[byz]) {
					nanIn++
				}
				for j, v := range filtered {
					lo, hi := math.Inf(1), math.Inf(-1)
					for ps, vec := range received {
						if ps != byz {
							lo, hi = math.Min(lo, vec[j]), math.Max(hi, vec[j])
						}
					}
					if !(v >= lo-1e-9 && v <= hi+1e-9) {
						violations = append(violations, fmt.Sprintf("client %d round %d coord %d: %v outside benign [%v, %v]", client, round, j, v, lo, hi))
						return
					}
				}
			}
			l, err := NewLocal(cfg, makeLearners(t, k, seed), func(pc *PSConfig) {
				pc.Timeout, pc.Tolerant, pc.Obs = 5*time.Second, tolerant, reg
				if pc.Attack != nil {
					byz = pc.ID
				}
			}, func(cc *ClientConfig) {
				cc.Timeout, cc.Obs = 5*time.Second, reg
				if tolerant {
					cc.MinModels = p - 2
				}
				id := cc.ID
				cc.OnRound = func(round int, received map[int][]float64, filtered []float64) {
					onRound(id, round, received, filtered)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if byz < 0 {
				t.Fatal("the derivation made no server Byzantine")
			}
			if _, _, err := l.Run(); err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if len(violations) > 0 {
				t.Fatalf("%d filtered models left the benign span; first: %s", len(violations), violations[0])
			}
			if observed != k*rounds || nanIn != k*rounds {
				t.Fatalf("observed %d client rounds, %d with the NaN model; want %d of each", observed, nanIn, k*rounds)
			}
			for i := 0; i < p; i++ {
				if n := reg.Counter(fmt.Sprintf(`fedms_ps_frames_skipped_total{ps="%d"}`, i)).Value(); n != 0 {
					t.Errorf("ps %d skipped %d frames", i, n)
				}
			}
			for c := 0; c < k; c++ {
				if n := reg.Counter(fmt.Sprintf(`fedms_client_frames_skipped_total{client="%d"}`, c)).Value(); n != 0 {
					t.Errorf("client %d skipped %d frames", c, n)
				}
			}
		})
	}
}

// hasNaN reports whether any coordinate of v is NaN.
func hasNaN(v []float64) bool {
	for _, x := range v {
		if x != x {
			return true
		}
	}
	return false
}
