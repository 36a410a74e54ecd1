// Package attack implements the Byzantine parameter-server behaviours
// evaluated in §VI of the Fed-MS paper — Noise, Random, Safeguard and
// Backward (from the Blades benchmark suite) — plus the colluding ALIE
// and IPM attacks and the codec-aware CodecPoison.
//
// An attack tampers with the *dissemination* step of a Byzantine PS: the
// server first computes its honest aggregate (it received genuine client
// uploads) and then sends an arbitrary corruption of it. Per the paper's
// threat model, a Byzantine PS is adaptive (it sees the whole protocol
// state, here modelled by the aggregate history) and may equivocate,
// sending different tampered models to different clients.
package attack

import (
	"fmt"

	"fedms/internal/randx"
)

// Context is the information available to a Byzantine PS when it crafts
// the model it will send to one client in one round.
type Context struct {
	// Round is the current training round (0-based).
	Round int
	// Server is the Byzantine PS index.
	Server int
	// Client is the destination client index.
	Client int
	// TrueAgg is the server's honest aggregate for this round. Attacks
	// must not mutate it.
	TrueAgg []float64
	// History holds the server's honest aggregates of the earlier
	// rounds it served, oldest first, ending at round Round-1. A
	// restarted distributed PS's history starts at its restart round,
	// so History[r] is not in general round r's aggregate. Attacks must
	// not mutate it.
	History [][]float64
	// BenignAggs holds this round's honest aggregates of the *benign*
	// servers — the "adaptive knowledge" of the paper's threat model,
	// available to colluding Byzantine PSs. It is populated by the
	// in-process engine; the distributed runtime leaves it nil (a
	// single networked PS cannot observe its peers), and knowledge-
	// hungry attacks (ALIE, IPM) fall back to the server's own
	// aggregate. Attacks must not mutate it.
	BenignAggs [][]float64
	// RNG is a deterministic stream. core.Server derives it, in both
	// runtimes, per (server, round) for consistent attacks and per
	// (server, round, client) for equivocating attacks, so the same
	// experiment seed reproduces the same attack trace.
	RNG *randx.RNG
}

// Attack produces the tampered model a Byzantine PS disseminates.
type Attack interface {
	Name() string
	// Equivocates reports whether the attack sends different models to
	// different clients (the paper's worst case). It controls RNG
	// derivation in the engine.
	Equivocates() bool
	// Tamper returns a freshly allocated tampered vector.
	Tamper(ctx *Context) []float64
}

// None is the identity "attack": the server behaves honestly. Used for
// the epsilon = 0 rows of Fig. 3 and as a control.
type None struct{}

// Name implements Attack.
func (None) Name() string { return "none" }

// Equivocates implements Attack.
func (None) Equivocates() bool { return false }

// Tamper implements Attack.
func (None) Tamper(ctx *Context) []float64 {
	return clone(ctx.TrueAgg)
}

// Noise adds Gaussian noise to the honest aggregate:
// ã = a + N(0, σ²I).
type Noise struct {
	// Sigma is the noise standard deviation (default 1).
	Sigma float64
	// PerClient sends independently drawn noise to each client.
	PerClient bool
}

// Name implements Attack.
func (a Noise) Name() string { return fmt.Sprintf("noise(sigma=%g)", a.sigma()) }

func (a Noise) sigma() float64 {
	if a.Sigma == 0 {
		return 1
	}
	return a.Sigma
}

// Equivocates implements Attack.
func (a Noise) Equivocates() bool { return a.PerClient }

// Tamper implements Attack.
func (a Noise) Tamper(ctx *Context) []float64 {
	out := clone(ctx.TrueAgg)
	s := a.sigma()
	for i := range out {
		out[i] += s * ctx.RNG.NormFloat64()
	}
	return out
}

// Random replaces the aggregate with i.i.d. uniform values; the paper
// samples from [-10, 10].
type Random struct {
	// Lo, Hi bound the uniform interval (defaults -10, 10).
	Lo, Hi float64
	// PerClient sends an independent random model to each client.
	PerClient bool
}

// Name implements Attack.
func (a Random) Name() string {
	lo, hi := a.bounds()
	return fmt.Sprintf("random(%g,%g)", lo, hi)
}

func (a Random) bounds() (float64, float64) {
	if a.Lo == 0 && a.Hi == 0 {
		return -10, 10
	}
	return a.Lo, a.Hi
}

// Equivocates implements Attack.
func (a Random) Equivocates() bool { return a.PerClient }

// Tamper implements Attack.
func (a Random) Tamper(ctx *Context) []float64 {
	lo, hi := a.bounds()
	out := make([]float64, len(ctx.TrueAgg))
	randx.Uniform(ctx.RNG, out, lo, hi)
	return out
}

// Safeguard is the reverse-pseudo-gradient attack of §VI-A:
// ã_{t+1} = a_{t+1} − γ·g_{t+1} with g_{t+1} = a_{t+1} − a_t the pseudo
// global gradient and γ = 0.6 in the paper.
type Safeguard struct {
	// Gamma is the reverse-gradient scale (default 0.6).
	Gamma float64
}

// Name implements Attack.
func (a Safeguard) Name() string { return fmt.Sprintf("safeguard(gamma=%g)", a.gamma()) }

func (a Safeguard) gamma() float64 {
	if a.Gamma == 0 {
		return 0.6
	}
	return a.Gamma
}

// Equivocates implements Attack.
func (Safeguard) Equivocates() bool { return false }

// Tamper implements Attack.
func (a Safeguard) Tamper(ctx *Context) []float64 {
	out := clone(ctx.TrueAgg)
	if len(ctx.History) == 0 {
		return out // no previous aggregate yet: nothing to reverse
	}
	prev := ctx.History[len(ctx.History)-1]
	g := a.gamma()
	for i := range out {
		grad := ctx.TrueAgg[i] - prev[i]
		out[i] -= g * grad
	}
	return out
}

// Backward is the staleness attack of §VI-A: the server disseminates
// its aggregate from Lag rounds ago, ã_{t+1} = a_{t+1−T}; the paper
// uses T = 2.
type Backward struct {
	// Lag is the number of rounds to look back (default 2).
	Lag int
}

// Name implements Attack.
func (a Backward) Name() string { return fmt.Sprintf("backward(lag=%d)", a.lag()) }

func (a Backward) lag() int {
	if a.Lag == 0 {
		return 2
	}
	return a.Lag
}

// Equivocates implements Attack.
func (Backward) Equivocates() bool { return false }

// Tamper implements Attack.
func (a Backward) Tamper(ctx *Context) []float64 {
	idx := len(ctx.History) - a.lag()
	if idx < 0 {
		if len(ctx.History) == 0 {
			return clone(ctx.TrueAgg)
		}
		idx = 0 // oldest available aggregate
	}
	return clone(ctx.History[idx])
}

// ByName returns the attack registered under the given name with default
// parameters; it powers the CLI tools. Names lists every registered
// name; ByName and Names must stay in lockstep (round-trip tested).
func ByName(name string) (Attack, error) {
	switch name {
	case "none":
		return None{}, nil
	case "noise":
		return Noise{}, nil
	case "random":
		return Random{}, nil
	case "safeguard":
		return Safeguard{}, nil
	case "backward":
		return Backward{}, nil
	case "alie":
		return ALIE{}, nil
	case "ipm":
		return IPM{}, nil
	case "codecpoison":
		return CodecPoison{}, nil
	default:
		return nil, fmt.Errorf("attack: unknown attack %q", name)
	}
}

// Names lists every name ByName accepts, in registration order — the
// -attack usage string and the registry round-trip test consume it.
func Names() []string {
	return []string{
		"none", "noise", "random", "safeguard", "backward",
		"alie", "ipm", "codecpoison",
	}
}

func clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

var (
	_ Attack = None{}
	_ Attack = Noise{}
	_ Attack = Random{}
	_ Attack = Safeguard{}
	_ Attack = Backward{}
	_ Attack = ALIE{}
	_ Attack = IPM{}
	_ Attack = CodecPoison{}
)
