// Package theory provides the synthetic strongly convex objectives used
// to validate the paper's convergence analysis (Theorem 1 and Lemmas
// 1-3) empirically.
//
// Each client k minimizes a diagonal quadratic
//
//	F_k(w) = ½ (w − c_k)ᵀ A_k (w − c_k),
//
// whose eigenvalues lie in [μ, L], so Assumptions 1-2 hold exactly, and
// stochastic gradients add Gaussian noise so Assumption 3 holds with a
// known σ². The global optimum w* and optimal value F* are available in
// closed form, which lets experiments measure E[F(w̄_t) − F*] directly
// against the O(1/T) bound.
package theory

import (
	"fmt"

	"fedms/internal/core"
	"fedms/internal/nn"
	"fedms/internal/randx"
)

// ProblemConfig parameterizes a federated quadratic problem.
type ProblemConfig struct {
	Dim        int     // parameter dimension d
	Clients    int     // K
	Mu         float64 // strong convexity (min eigenvalue)
	L          float64 // smoothness (max eigenvalue)
	NoiseStd   float64 // per-coordinate stochastic gradient noise σ/√d
	Spread     float64 // std of client optima around the origin (heterogeneity, drives Γ)
	InitRadius float64 // initial parameter scale (default 5)
	Seed       uint64
}

// Problem is a fully specified federated quadratic objective.
type Problem struct {
	cfg   ProblemConfig
	diag  [][]float64 // per-client diagonal of A_k
	opt   [][]float64 // per-client optimum c_k
	wstar []float64
	fstar float64
	w0    []float64
}

// NewProblem samples a problem instance deterministically from the
// seed.
func NewProblem(cfg ProblemConfig) (*Problem, error) {
	if cfg.Dim <= 0 || cfg.Clients <= 0 {
		return nil, fmt.Errorf("theory: Dim and Clients must be positive")
	}
	if cfg.Mu <= 0 || cfg.L < cfg.Mu {
		return nil, fmt.Errorf("theory: need 0 < Mu <= L, got mu=%v L=%v", cfg.Mu, cfg.L)
	}
	if cfg.InitRadius == 0 {
		cfg.InitRadius = 5
	}
	p := &Problem{
		cfg:  cfg,
		diag: make([][]float64, cfg.Clients),
		opt:  make([][]float64, cfg.Clients),
	}
	for k := 0; k < cfg.Clients; k++ {
		r := randx.Split(cfg.Seed, fmt.Sprintf("quad/client/%d", k))
		d := make([]float64, cfg.Dim)
		randx.Uniform(r, d, cfg.Mu, cfg.L)
		// Pin the extremes so μ and L are exact, not just bounds.
		if cfg.Dim >= 2 {
			d[0], d[1] = cfg.Mu, cfg.L
		} else {
			d[0] = cfg.Mu
		}
		c := make([]float64, cfg.Dim)
		randx.Normal(r, c, 0, cfg.Spread)
		p.diag[k] = d
		p.opt[k] = c
	}
	// w* = (Σ A_k)⁻¹ Σ A_k c_k (diagonal case).
	p.wstar = make([]float64, cfg.Dim)
	for j := 0; j < cfg.Dim; j++ {
		num, den := 0.0, 0.0
		for k := 0; k < cfg.Clients; k++ {
			num += p.diag[k][j] * p.opt[k][j]
			den += p.diag[k][j]
		}
		p.wstar[j] = num / den
	}
	p.fstar = p.GlobalLoss(p.wstar)
	p.w0 = make([]float64, cfg.Dim)
	randx.Normal(randx.Split(cfg.Seed, "quad/init"), p.w0, 0, cfg.InitRadius)
	return p, nil
}

// Config returns the problem configuration.
func (p *Problem) Config() ProblemConfig { return p.cfg }

// Optimum returns a copy of the global minimizer w*.
func (p *Problem) Optimum() []float64 { return append([]float64(nil), p.wstar...) }

// OptimalValue returns F* = F(w*).
func (p *Problem) OptimalValue() float64 { return p.fstar }

// Gamma returns Γ = F* − (1/K)ΣF_k*, the heterogeneity constant of
// Theorem 1 (F_k* = 0 for quadratics, so Γ = F*).
func (p *Problem) Gamma() float64 { return p.fstar }

// ClientLoss evaluates F_k(w).
func (p *Problem) ClientLoss(k int, w []float64) float64 {
	s := 0.0
	for j, wj := range w {
		d := wj - p.opt[k][j]
		s += 0.5 * p.diag[k][j] * d * d
	}
	return s
}

// GlobalLoss evaluates F(w) = (1/K) Σ_k F_k(w).
func (p *Problem) GlobalLoss(w []float64) float64 {
	s := 0.0
	for k := 0; k < p.cfg.Clients; k++ {
		s += p.ClientLoss(k, w)
	}
	return s / float64(p.cfg.Clients)
}

// Suboptimality returns F(w) − F*.
func (p *Problem) Suboptimality(w []float64) float64 {
	return p.GlobalLoss(w) - p.fstar
}

// TheorySchedule returns the step-size schedule of Theorem 1:
// η_t = 2/(μ(γ+t)) with γ = max(8L/μ, E).
func (p *Problem) TheorySchedule(localSteps int) nn.Schedule {
	gamma := 8 * p.cfg.L / p.cfg.Mu
	if e := float64(localSteps); e > gamma {
		gamma = e
	}
	return nn.InverseDecayLR{Phi: 2 / p.cfg.Mu, Gamma: gamma}
}

// Learner returns client k's core.Learner over this problem.
func (p *Problem) Learner(k int) *QuadLearner {
	w := append([]float64(nil), p.w0...)
	return &QuadLearner{
		p:   p,
		k:   k,
		w:   w,
		rng: randx.Split(p.cfg.Seed, fmt.Sprintf("quad/sgd/%d", k)),
	}
}

// Learners returns all K client learners.
func (p *Problem) Learners() []core.Learner {
	ls := make([]core.Learner, p.cfg.Clients)
	for k := range ls {
		ls[k] = p.Learner(k)
	}
	return ls
}

// QuadLearner is one client's SGD state on a Problem. It implements
// core.Learner.
type QuadLearner struct {
	p   *Problem
	k   int
	w   []float64
	rng *randx.RNG
}

// NumParams implements core.Learner.
func (l *QuadLearner) NumParams() int { return l.p.cfg.Dim }

// Params implements core.Learner.
func (l *QuadLearner) Params() []float64 { return append([]float64(nil), l.w...) }

// SetParams implements core.Learner.
func (l *QuadLearner) SetParams(flat []float64) {
	if len(flat) != len(l.w) {
		panic("theory: SetParams dimension mismatch")
	}
	copy(l.w, flat)
}

// stepChunk is how many noise draws LocalTrain buffers on the stack
// before one fused loop consumes them.
const stepChunk = 256

// LocalTrain implements core.Learner: E steps of noisy gradient
// descent on F_k. Each step is one pass over the coordinates that forms
// the noisy gradient g_j = a_j(w_j − c_j) + σz_j, applies w_j += −η·g_j
// and sums F_k at the updated w, with the noise drawn in coordinate
// order; the bits are those of a separate gradient pass, axpy and
// ClientLoss.
func (l *QuadLearner) LocalTrain(steps, globalStep int, sched nn.Schedule) float64 {
	diag, opt, noise := l.p.diag[l.k], l.p.opt[l.k], l.p.cfg.NoiseStd
	total := 0.0
	var z [stepChunk]float64
	for i := 0; i < steps; i++ {
		a := -sched.LR(globalStep + i)
		loss := 0.0
		for lo := 0; lo < len(l.w); lo += stepChunk {
			w := l.w[lo:min(lo+stepChunk, len(l.w))]
			zc := z[:len(w)]
			for j := range zc {
				zc[j] = l.rng.NormFloat64()
			}
			dc, oc := diag[lo:lo+len(w)], opt[lo:lo+len(w)]
			for j, wj := range w {
				g := dc[j]*(wj-oc[j]) + noise*zc[j]
				wj += a * g
				w[j] = wj
				d := wj - oc[j]
				loss += 0.5 * dc[j] * d * d
			}
		}
		total += loss
	}
	if steps == 0 {
		return 0
	}
	return total / float64(steps)
}

// Evaluate implements core.Learner: loss is the client's global
// suboptimality F(w) − F*; accuracy is not meaningful for regression
// and reported as 0.
func (l *QuadLearner) Evaluate() (float64, float64) {
	return l.p.Suboptimality(l.w), 0
}

var _ core.Learner = (*QuadLearner)(nil)
