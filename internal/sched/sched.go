// Package sched is the round-lifecycle state machine shared by the
// in-process engine (core.Engine.RunRound) and the distributed PS
// (node.PS's serve loop). Both runtimes previously carried their own
// copy of the same cursor-and-admission logic; now each drives a
// Scheduler and asks it what to do with every upload.
//
// Two modes:
//
//   - Sync replicates the K-frame barrier exactly: only uploads tagged
//     with the current round are accepted, future rounds are deferred
//     (parked until their round opens), past rounds are dropped.
//   - Async closes a round on a wall-clock (or virtual) window instead
//     of a barrier, accepts uploads up to Staleness rounds old with a
//     deterministic down-weight applied before the robust rule, defers
//     future-round uploads to the spill buffer, and drops anything
//     older than the staleness bound.
//
// Determinism contract (DESIGN.md §7): every admission decision is a
// pure function of (mode, current round, origin round, staleness
// bound), and Weight is a pure function of staleness — so a seeded run
// that replays the same arrival schedule replays the same aggregate,
// and the engine's virtual clock (ArrivalDelay) makes the arrival
// schedule itself a pure function of the seed.
package sched

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"fedms/internal/compress"
	"fedms/internal/randx"
)

// Mode selects the round lifecycle the scheduler drives.
type Mode int

const (
	// Sync is the K-frame barrier: a round closes when every expected
	// upload (or its skip frame) has arrived.
	Sync Mode = iota
	// Async closes a round when its window expires and admits stale
	// uploads with down-weighting.
	Async
)

// Outcome classifies one upload against the current round.
type Outcome int

const (
	// Accept: fresh upload for the current round, weight 1.
	Accept Outcome = iota
	// AcceptStale: within the staleness bound; aggregate down-weighted.
	AcceptStale
	// Defer: tagged for a future round; park it (pending slot in sync,
	// spill buffer in async) until that round opens.
	Defer
	// DropStale: too old to admit (any past round in sync, beyond the
	// staleness bound in async).
	DropStale
)

// String returns the outcome name for traces and metrics labels.
func (o Outcome) String() string {
	switch o {
	case Accept:
		return "accept"
	case AcceptStale:
		return "accept_stale"
	case Defer:
		return "defer"
	case DropStale:
		return "drop_stale"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Decision is the scheduler's verdict on one upload.
type Decision struct {
	Outcome   Outcome
	Staleness int     // rounds behind the current round (Accept* only)
	Weight    float64 // aggregation weight: Weight(Staleness), 0 unless accepted
}

// Config parameterizes a Scheduler.
type Config struct {
	Mode       Mode
	Rounds     int           // total rounds; Done after the cursor passes the last
	StartRound int           // first round served (tolerant-PS restart resumes here)
	Window     time.Duration // async: aggregation window per round
	Staleness  int           // async: max admitted staleness S (0 = fresh only)
}

// Scheduler is the shared round cursor plus the admission policy.
// Decide is safe to call from reader goroutines spawned after the
// latest Advance (the PS spawns per-round readers; the engine is
// single-threaded).
type Scheduler struct {
	cfg   Config
	round int
}

// KnobError is a Knobs rejection. Knob is the offending knob's name —
// "Window" or "Staleness", the spelling every config struct gives the
// field — so a caller can attribute the error to its own field.
type KnobError struct{ Knob, Reason string }

func (e *KnobError) Error() string { return e.Knob + " " + e.Reason }

// Knobs is the one statement of the async-knob rule that core.Config,
// node.PSConfig and node.ClientConfig share: outside async mode both
// knobs must be zero; in async mode neither may be negative and a zero
// window means DefaultLatencyScale/4. It returns the effective window,
// or the rejection — typed, so each caller can attribute it to its own
// field and add its own prefix.
func Knobs(async bool, window time.Duration, staleness int) (time.Duration, *KnobError) {
	switch {
	case !async && window != 0:
		return 0, &KnobError{"Window", "requires Async"}
	case !async && staleness != 0:
		return 0, &KnobError{"Staleness", "requires Async"}
	case window < 0:
		return 0, &KnobError{"Window", fmt.Sprintf("must be non-negative, got %v", window)}
	case staleness < 0:
		return 0, &KnobError{"Staleness", fmt.Sprintf("must be non-negative, got %d", staleness)}
	case async && window == 0:
		window = DefaultLatencyScale / 4
	}
	return window, nil
}

// New validates cfg and returns a scheduler positioned at StartRound.
// It takes the effective window (see Knobs), so async mode needs a
// positive one.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("sched: Rounds must be positive, got %d", cfg.Rounds)
	}
	if cfg.StartRound < 0 || cfg.StartRound > cfg.Rounds {
		return nil, fmt.Errorf("sched: StartRound %d outside [0,%d]", cfg.StartRound, cfg.Rounds)
	}
	if cfg.Mode != Sync && cfg.Mode != Async {
		return nil, fmt.Errorf("sched: unknown mode %d", int(cfg.Mode))
	}
	if _, kerr := Knobs(cfg.Mode == Async, cfg.Window, cfg.Staleness); kerr != nil {
		return nil, fmt.Errorf("sched: %w", kerr)
	}
	if cfg.Mode == Async && cfg.Window == 0 {
		return nil, fmt.Errorf("sched: Async mode requires a positive Window")
	}
	return &Scheduler{cfg: cfg, round: cfg.StartRound}, nil
}

// Round returns the current round cursor.
func (s *Scheduler) Round() int { return s.round }

// Done reports whether every round has been served.
func (s *Scheduler) Done() bool { return s.round >= s.cfg.Rounds }

// Advance moves the cursor to the next round and reports whether more
// rounds remain. Callers must not have concurrent Decide calls in
// flight (the PS advances between rounds, after its readers exit).
func (s *Scheduler) Advance() bool {
	s.round++
	return !s.Done()
}

// Window returns the per-round aggregation window (0 in sync mode,
// where the barrier has no absolute deadline).
func (s *Scheduler) Window() time.Duration { return s.cfg.Window }

// Decide classifies an upload tagged with origin against the current
// round. Pure in (mode, round, origin, staleness bound).
func (s *Scheduler) Decide(origin int) Decision {
	return DecideAt(s.cfg.Mode, s.round, origin, s.cfg.Staleness)
}

// DecideAt is Decide with an explicit round cursor, for callers that
// thread the round through their own loop.
func DecideAt(mode Mode, round, origin, staleness int) Decision {
	switch {
	case origin == round:
		return Decision{Outcome: Accept, Weight: 1}
	case origin > round:
		return Decision{Outcome: Defer}
	case mode == Async && round-origin <= staleness:
		st := round - origin
		return Decision{Outcome: AcceptStale, Staleness: st, Weight: Weight(st)}
	default:
		return Decision{Outcome: DropStale}
	}
}

// Entry is one upload admitted to a round's aggregation — the member
// type both runtimes build, sync and async alike: a payload view plus
// the staleness the scheduler ruled on and the down-weight it carries
// into the robust rule (exactly 1 when fresh).
type Entry struct {
	Client, Origin int
	Stale          int     // rounds behind the admitting round; 0 = fresh
	Weight         float64 // Weight(Stale)
	View           compress.Payload
}

// Compare is the canonical member order: ascending client, then origin
// round. Every admitted set — and every batch of records entering a
// spill buffer — is put in this order first, so membership order, and
// therefore every aggregate bit and every segment byte, is independent
// of arrival interleaving.
func Compare(clientA, originA, clientB, originB int) int {
	if c := cmp.Compare(clientA, clientB); c != 0 {
		return c
	}
	return cmp.Compare(originA, originB)
}

// Sort puts an admitted set in canonical member order.
func Sort(entries []Entry) {
	slices.SortFunc(entries, func(a, b Entry) int {
		return Compare(a.Client, a.Origin, b.Client, b.Origin)
	})
}

// Members returns the aligned views and weights the aggregation call
// consumes, in the order the entries are given (canonical, after Sort).
func Members(entries []Entry) (views []compress.Payload, weights []float64) {
	views = make([]compress.Payload, len(entries))
	weights = make([]float64, len(entries))
	for i, e := range entries {
		views[i], weights[i] = e.View, e.Weight
	}
	return views, weights
}

// Weight is the deterministic staleness down-weight applied before the
// robust aggregation rule: w(s) = 1/(1+s). w(0) is exactly 1.0, so a
// fresh upload aggregates bit-identically to the unweighted path.
func Weight(staleness int) float64 {
	return 1 / float64(1+staleness)
}

// DefaultLatencyScale is the virtual upload-latency scale of the
// engine's simulated async clock: per-upload latencies draw uniformly
// from [0, DefaultLatencyScale), so a window at least this long admits
// every upload fresh and async collapses to sync membership.
const DefaultLatencyScale = time.Second

// ArrivalDelay returns the number of whole windows a virtual upload
// arrives late: its latency draws uniformly from [0, scale) on the
// seeded stream "async/r<origin>/c<client>", and the delay is
// floor(latency/window). Deterministic in (seed, origin, client,
// window, scale) — the engine's reproducible stand-in for the wall
// clock the distributed PS lives on. A non-positive window or scale
// means no delay.
func ArrivalDelay(seed uint64, origin, client int, window, scale time.Duration) int {
	if window <= 0 || scale <= 0 {
		return 0
	}
	r := randx.Split(seed, fmt.Sprintf("async/r%d/c%d", origin, client))
	lat := time.Duration(r.Int64N(int64(scale)))
	return int(lat / window)
}
