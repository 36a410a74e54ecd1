package theory

import (
	"math"
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/core"
	"fedms/internal/nn"
	"fedms/internal/tensor"
)

func newProblem(t *testing.T, cfg ProblemConfig) *Problem {
	t.Helper()
	p, err := NewProblem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func defaultCfg() ProblemConfig {
	return ProblemConfig{
		Dim: 10, Clients: 12, Mu: 0.5, L: 4, NoiseStd: 0.2, Spread: 1, Seed: 7,
	}
}

func TestNewProblemValidation(t *testing.T) {
	bad := []ProblemConfig{
		{Dim: 0, Clients: 3, Mu: 1, L: 2},
		{Dim: 3, Clients: 0, Mu: 1, L: 2},
		{Dim: 3, Clients: 3, Mu: 0, L: 2},
		{Dim: 3, Clients: 3, Mu: 3, L: 2},
	}
	for i, cfg := range bad {
		if _, err := NewProblem(cfg); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestOptimumIsStationary(t *testing.T) {
	p := newProblem(t, defaultCfg())
	wstar := p.Optimum()
	// Gradient of global loss at w* must vanish: Σ A_k (w*-c_k) = 0
	// per coordinate.
	for j := 0; j < p.cfg.Dim; j++ {
		g := 0.0
		for k := 0; k < p.cfg.Clients; k++ {
			g += p.diag[k][j] * (wstar[j] - p.opt[k][j])
		}
		if math.Abs(g) > 1e-9 {
			t.Fatalf("gradient at w* coordinate %d = %v", j, g)
		}
	}
}

func TestOptimalValueIsMinimum(t *testing.T) {
	p := newProblem(t, defaultCfg())
	wstar := p.Optimum()
	for trial := 0; trial < 20; trial++ {
		w := append([]float64(nil), wstar...)
		w[trial%len(w)] += 0.5
		if p.GlobalLoss(w) < p.OptimalValue() {
			t.Fatal("found point below claimed optimum")
		}
	}
	if p.Suboptimality(wstar) != 0 {
		t.Fatal("suboptimality at w* must be 0")
	}
}

func TestGammaNonNegativeAndGrowsWithSpread(t *testing.T) {
	cfg := defaultCfg()
	cfg.Spread = 0.1
	small := newProblem(t, cfg).Gamma()
	cfg.Spread = 3
	large := newProblem(t, cfg).Gamma()
	if small < 0 || large < 0 {
		t.Fatal("Γ must be non-negative")
	}
	if large <= small {
		t.Fatalf("Γ should grow with heterogeneity: %v vs %v", small, large)
	}
}

func TestTheoryScheduleMatchesTheorem(t *testing.T) {
	p := newProblem(t, defaultCfg())
	s := p.TheorySchedule(3)
	// γ = max(8L/μ, E) = max(64, 3) = 64; η_0 = 2/(0.5·64) = 1/16.
	if got := s.LR(0); math.Abs(got-1.0/16) > 1e-12 {
		t.Fatalf("η_0 = %v, want 1/16", got)
	}
	// Non-increasing with η_t <= 2η_{t+E}, the lemma precondition.
	for step := 0; step < 100; step++ {
		if s.LR(step) < s.LR(step+1) {
			t.Fatal("schedule must be non-increasing")
		}
		if s.LR(step) > 2*s.LR(step+3) {
			t.Fatal("schedule violates η_t <= 2η_{t+E}")
		}
	}
}

func TestQuadLearnerGradientStep(t *testing.T) {
	cfg := defaultCfg()
	cfg.NoiseStd = 0 // deterministic gradient
	p := newProblem(t, cfg)
	l := p.Learner(0)
	w0 := l.Params()
	l.LocalTrain(1, 0, nn.ConstantLR(0.1))
	w1 := l.Params()
	for j := range w0 {
		want := w0[j] - 0.1*p.diag[0][j]*(w0[j]-p.opt[0][j])
		if math.Abs(w1[j]-want) > 1e-12 {
			t.Fatalf("gradient step coordinate %d: got %v want %v", j, w1[j], want)
		}
	}
}

func TestQuadLearnerDeterministic(t *testing.T) {
	p := newProblem(t, defaultCfg())
	a, b := p.Learner(2), p.Learner(2)
	a.LocalTrain(5, 0, nn.ConstantLR(0.05))
	b.LocalTrain(5, 0, nn.ConstantLR(0.05))
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("learners with same seed diverged")
		}
	}
}

// threePassLocalTrain is LocalTrain's body before it became one loop:
// a gradient pass into a fresh buffer, an axpy, then ClientLoss. It is
// the oracle the fused step must match bit for bit.
func threePassLocalTrain(l *QuadLearner, steps, globalStep int, sched nn.Schedule) float64 {
	total := 0.0
	grad := make([]float64, len(l.w))
	for i := 0; i < steps; i++ {
		for j := range l.w {
			grad[j] = l.p.diag[l.k][j]*(l.w[j]-l.p.opt[l.k][j]) + l.p.cfg.NoiseStd*l.rng.NormFloat64()
		}
		lr := sched.LR(globalStep + i)
		tensor.VecAxpy(l.w, -lr, grad)
		total += l.p.ClientLoss(l.k, l.w)
	}
	if steps == 0 {
		return 0
	}
	return total / float64(steps)
}

// TestQuadLocalTrainMatchesThreePass holds the fused step to the
// three-pass oracle bit for bit — parameters, returned loss and the
// noise stream, over two successive calls — on dimensions around the
// chunk boundary, with and without noise, under the Theorem 1 schedule.
func TestQuadLocalTrainMatchesThreePass(t *testing.T) {
	for _, d := range []int{1, 255, 256, 257, 1000} {
		for _, noise := range []float64{0, 0.3} {
			cfg := defaultCfg()
			cfg.Dim, cfg.NoiseStd = d, noise
			p := newProblem(t, cfg)
			sched := p.TheorySchedule(3)
			for _, steps := range []int{0, 1, 3} {
				got, want := p.Learner(1), p.Learner(1)
				for call := 0; call < 2; call++ {
					gl := got.LocalTrain(steps, call*steps, sched)
					wl := threePassLocalTrain(want, steps, call*steps, sched)
					if math.Float64bits(gl) != math.Float64bits(wl) {
						t.Fatalf("d=%d noise=%v steps=%d call %d: loss %v, want %v", d, noise, steps, call, gl, wl)
					}
					for j := range want.w {
						if math.Float64bits(got.w[j]) != math.Float64bits(want.w[j]) {
							t.Fatalf("d=%d noise=%v steps=%d call %d: w[%d] = %v, want %v", d, noise, steps, call, j, got.w[j], want.w[j])
						}
					}
				}
			}
		}
	}
}

// TestQuadLocalTrainAllocs: a steady-state local step allocates nothing.
func TestQuadLocalTrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	cfg := defaultCfg()
	cfg.Dim = 100_000
	p := newProblem(t, cfg)
	l := p.Learner(0)
	sched := p.TheorySchedule(2)
	l.LocalTrain(2, 0, sched)
	if allocs := testing.AllocsPerRun(5, func() { l.LocalTrain(2, 2, sched) }); allocs != 0 {
		t.Errorf("%v allocs per LocalTrain, want 0", allocs)
	}
}

// BenchmarkQuadLocalTrain times one local step at d = 1e5, the
// loopback workloads' learner.
func BenchmarkQuadLocalTrain(b *testing.B) {
	cfg := defaultCfg()
	cfg.Dim = 100_000
	p, err := NewProblem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	l := p.Learner(0)
	sched := p.TheorySchedule(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.LocalTrain(1, i, sched)
	}
}

// runFedMS runs Fed-MS on a quadratic problem and returns the final
// suboptimality of the client-average model.
func runFedMS(t *testing.T, p *Problem, servers, byz, rounds int, atk attack.Attack, filter aggregate.Rule) float64 {
	t.Helper()
	const localSteps = 2
	cfg := core.Config{
		Clients:      p.cfg.Clients,
		Servers:      servers,
		NumByzantine: byz,
		Rounds:       rounds,
		LocalSteps:   localSteps,
		Attack:       atk,
		Filter:       filter,
		Schedule:     p.TheorySchedule(localSteps),
		Seed:         p.cfg.Seed,
		EvalEvery:    -1,
	}
	eng, err := core.NewEngine(cfg, p.Learners())
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return p.Suboptimality(eng.MeanClientParams())
}

func TestTheorem1Convergence(t *testing.T) {
	// With the Theorem 1 schedule, suboptimality must decay roughly as
	// O(1/T): compare errors at T and 4T — the ratio should be well
	// below 1 (exactly 0.25 for a pure 1/T law; we allow generous slack
	// for noise).
	avgErr := func(rounds int) float64 {
		sum := 0.0
		const seeds = 5
		for s := uint64(0); s < seeds; s++ {
			cfg := defaultCfg()
			cfg.Seed = 100 + s
			p := newProblem(t, cfg)
			sum += runFedMS(t, p, 5, 0, rounds, attack.None{}, aggregate.TrimmedMean{Beta: 0.2})
		}
		return sum / seeds
	}
	errShort := avgErr(50)
	errLong := avgErr(400) // 8x the rounds: pure 1/T predicts ratio 0.125
	if errLong > errShort {
		t.Fatalf("error grew with rounds: %v (50) -> %v (400)", errShort, errLong)
	}
	if ratio := errLong / errShort; ratio > 0.5 {
		t.Fatalf("decay too slow for O(1/T): err(50)=%v err(400)=%v ratio=%v",
			errShort, errLong, ratio)
	}
}

func TestTheorem1ByzantineErrorFloor(t *testing.T) {
	// The Δ term of Theorem 1 grows with B: Fed-MS with Byzantine noise
	// servers converges but to a (slightly) higher error level than the
	// clean run, and both beat vanilla averaging under attack.
	clean := runFedMS(t, newProblem(t, defaultCfg()), 5, 0, 150, attack.None{}, aggregate.TrimmedMean{Beta: 0.2})
	attacked := runFedMS(t, newProblem(t, defaultCfg()), 5, 2, 150, attack.Noise{Sigma: 2}, aggregate.TrimmedMean{Beta: 0.4})
	vanilla := runFedMS(t, newProblem(t, defaultCfg()), 5, 2, 150, attack.Noise{Sigma: 2}, aggregate.Mean{})

	if attacked > 50*clean+1 {
		t.Fatalf("Fed-MS under attack did not converge: clean %v vs attacked %v", clean, attacked)
	}
	if vanilla < 3*attacked {
		t.Fatalf("vanilla (%v) should be far worse than Fed-MS (%v) under noise attack", vanilla, attacked)
	}
}

func TestLemma1ClientDrift(t *testing.T) {
	// Lemma 1: E (1/K)Σ‖w̄_t − w_t^k‖² <= 4η²E²G² — client models drift
	// apart by at most O(η²E²) within a round. Measure drift right
	// after local training and check it shrinks as η shrinks.
	drift := func(lr float64) float64 {
		p := newProblem(t, defaultCfg())
		ls := p.Learners()
		for _, l := range ls {
			l.LocalTrain(3, 0, nn.ConstantLR(lr))
		}
		mean := make([]float64, p.cfg.Dim)
		for _, l := range ls {
			lp := l.Params()
			for j := range mean {
				mean[j] += lp[j] / float64(len(ls))
			}
		}
		s := 0.0
		for _, l := range ls {
			lp := l.Params()
			for j := range mean {
				d := lp[j] - mean[j]
				s += d * d
			}
		}
		return s / float64(len(ls))
	}
	big := drift(0.2)
	small := drift(0.02)
	// Drift scales with η²: a 10× smaller step should shrink drift by
	// ~100×; require at least 20×.
	if small > big/20 {
		t.Fatalf("drift did not scale with η²: η=0.2 → %v, η=0.02 → %v", big, small)
	}
}
