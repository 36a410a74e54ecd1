package core

import (
	"fmt"
	"math"
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
)

// honestSpan returns coordinate j's [min, max] over the servers'
// honest aggregates.
func honestSpan(honest [][]float64, j int) (lo, hi float64) {
	lo, hi = honest[0][j], honest[0][j]
	for _, h := range honest[1:] {
		lo, hi = math.Min(lo, h[j]), math.Max(hi, h[j])
	}
	return lo, hi
}

// outsideSpan reports whether v lies outside [lo-1e-9, hi+1e-9]. The
// comparison is written so that NaN is outside every span.
func outsideSpan(v, lo, hi float64) bool {
	return !(v >= lo-1e-9 && v <= hi+1e-9)
}

// snapshotHonest copies every server's honest aggregate of the round
// just run. Benign servers keep no history and reuse their aggregation
// buffer across rounds, so the snapshot copies each latest aggregate.
func snapshotHonest(eng *Engine) [][]float64 {
	honest := make([][]float64, len(eng.servers))
	for i, s := range eng.servers {
		honest[i] = append([]float64(nil), s.last...)
	}
	return honest
}

// assertWithinHonestSpan fails unless every client's model lies
// coordinate-wise within the span of the servers' honest aggregates
// (Byzantine servers aggregate honestly; they lie at dissemination).
func assertWithinHonestSpan(t *testing.T, eng *Engine, label string) {
	t.Helper()
	honest := snapshotHonest(eng)
	for k, l := range eng.Learners() {
		for j, v := range l.Params() {
			if lo, hi := honestSpan(honest, j); outsideSpan(v, lo, hi) {
				t.Fatalf("%s client %d coord %d: filtered %v outside honest span [%v, %v]", label, k, j, v, lo, hi)
			}
		}
	}
}

// TestFilterOutputWithinHonestSpan is the engine-level statement of
// Lemma 2's feasibility guarantee: with trim count m = B, every
// client's filtered model lies coordinate-wise within the span of the
// servers' *honest* aggregates, no matter what the B Byzantine servers
// disseminate. Runs under the most hostile configured attack
// (equivocating Random) across several rounds and seeds.
func TestFilterOutputWithinHonestSpan(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		learners, _ := testFixture(t, 8, 50+seed)
		cfg := baseConfig(8, 5, 1, attack.Random{PerClient: true}, aggregate.TrimmedMean{Beta: 0.2})
		cfg.Seed = seed
		cfg.Rounds = 6
		cfg.EvalEvery = -1
		eng, err := NewEngine(cfg, learners)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < cfg.Rounds; round++ {
			eng.RunRound()
			assertWithinHonestSpan(t, eng, fmt.Sprintf("seed %d round %d", seed, round))
		}
	}
}

// nanAttack disseminates an all-NaN model: the arbitrary value nothing
// on the wire or in the engine rejects.
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

// TestFilterTrimsByzantineNaN: one Byzantine server of five sends NaN
// in every coordinate; the Fed-MS filter (β = 0.2, trimming one value
// per side) must trim it, keeping every client's model finite and
// inside the honest span round after round. The Byzantine server sits
// mid-column: a comparison sort that leaves NaN in place would keep it
// there, in the averaged ranks.
func TestFilterTrimsByzantineNaN(t *testing.T) {
	learners, _ := testFixture(t, 8, 57)
	cfg := baseConfig(8, 5, 1, nanAttack{}, aggregate.TrimmedMean{Beta: 0.2})
	cfg.ByzantineIDs = []int{2}
	cfg.Rounds = 4
	cfg.EvalEvery = -1
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < cfg.Rounds; round++ {
		eng.RunRound()
		assertWithinHonestSpan(t, eng, fmt.Sprintf("round %d", round))
	}
}

// TestVanillaFilterViolatesSpan is the negative control: with the mean
// filter (no trimming) the Random attack pushes client models outside
// the honest span — the invariant above is the filter's doing, not an
// accident of the engine.
func TestVanillaFilterViolatesSpan(t *testing.T) {
	learners, _ := testFixture(t, 8, 60)
	cfg := baseConfig(8, 5, 1, attack.Random{}, aggregate.Mean{})
	cfg.Rounds = 1
	cfg.EvalEvery = -1
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRound()
	honest := snapshotHonest(eng)
	params := eng.Learners()[0].Params()
	violated := false
	for j := range params {
		if lo, hi := honestSpan(honest, j); outsideSpan(params[j], lo, hi) {
			violated = true
			break
		}
	}
	if !violated {
		t.Fatal("mean filter unexpectedly stayed within the honest span under Random attack")
	}
}
