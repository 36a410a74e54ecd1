package core

import (
	"fmt"
	"log/slog"
	"sort"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/nn"
	"fedms/internal/obs"
	"fedms/internal/randx"
	"fedms/internal/sched"
)

// UploadStrategy selects how clients distribute their local models to
// the parameter servers in the model-aggregation stage.
type UploadStrategy int

const (
	// SparseUpload is Fed-MS's communication-efficient strategy: each
	// client uploads to one uniformly random PS, costing K uploads per
	// round (the same as single-PS FL).
	SparseUpload UploadStrategy = iota + 1
	// FullUpload sends every client's model to every PS, costing K×P
	// uploads per round; the trivial baseline discussed in §IV-A.
	FullUpload
)

// String implements fmt.Stringer.
func (u UploadStrategy) String() string {
	switch u {
	case SparseUpload:
		return "sparse"
	case FullUpload:
		return "full"
	default:
		return fmt.Sprintf("UploadStrategy(%d)", int(u))
	}
}

// Config parameterizes one Fed-MS run. The zero value is not usable;
// call Validate (or use the fedms root package, which fills defaults).
type Config struct {
	// Clients is K, the number of end devices.
	Clients int
	// Servers is P, the number of edge parameter servers.
	Servers int
	// NumByzantine is B. The Byzantine server identities are derived
	// deterministically from Seed unless ByzantineIDs is set.
	NumByzantine int
	// ByzantineIDs optionally pins which servers are Byzantine.
	ByzantineIDs []int
	// Rounds is T, the number of global training rounds.
	Rounds int
	// LocalSteps is E, the number of local SGD iterations per round.
	LocalSteps int
	// Upload selects sparse (Fed-MS) or full uploading.
	Upload UploadStrategy
	// Participation is the fraction of clients active per round, in
	// (0, 1]. Inactive clients neither train nor upload that round
	// (they still receive and filter the disseminated models, so every
	// client keeps a current global model — the partial-participation
	// setting of Li et al. that the paper's analysis builds on).
	// Zero means full participation.
	Participation float64
	// Attack is the Byzantine servers' behaviour. Equivocating attacks
	// are invoked concurrently from the parallel filter stage (one
	// deterministic RNG stream per destination client), so custom
	// implementations must not mutate shared state in Tamper.
	Attack attack.Attack
	// Filter is the client-side defence Def(·): TrimmedMean{B/P} for
	// Fed-MS, Mean{} for vanilla FL.
	Filter aggregate.Rule
	// Schedule is the learning-rate schedule η_t.
	Schedule nn.Schedule
	// NumByzantineClients is the number of Byzantine *clients* — the
	// two-sided threat model the paper defers to future work. The
	// identities are derived from Seed unless ByzantineClientIDs is
	// set. Byzantine clients train normally but upload tampered models
	// via ClientAttack.
	NumByzantineClients int
	// ByzantineClientIDs optionally pins which clients are Byzantine.
	ByzantineClientIDs []int
	// ClientAttack is the Byzantine clients' upload behaviour
	// (required when NumByzantineClients > 0).
	ClientAttack attack.UploadAttack
	// ServerFilter is the aggregation rule benign parameter servers
	// apply to the uploads they receive. The paper's servers average
	// (Mean, the default); a robust rule here defends against
	// Byzantine clients.
	ServerFilter aggregate.Rule
	// LossOracle scores a candidate model on a server-held holdout
	// split. When set and Filter or ServerFilter implements
	// aggregate.LossRule (FedGreed, LossCluster), aggregation routes
	// through the oracle; otherwise the loss rules run their
	// geometry-only fallback. The oracle must be a deterministic pure
	// function of the model vector — it never mutates model or
	// training state. The engine and node.NewLocal, whose servers and
	// filters share it concurrently, serialize its calls
	// (aggregate.Serialize); a caller handing one oracle to nodes it
	// runs concurrently itself must do the same.
	// Calls are counted in Obs (fedms_engine_oracle_evals_total) as
	// they are made: the filter site counts one filter's evaluations
	// per distinct received set, which is one set per round unless a
	// Byzantine server equivocates and one per client when it does.
	LossOracle aggregate.LossEval
	// Seed is the root seed; every random choice in the run derives
	// from it.
	Seed uint64
	// EvalEvery evaluates test metrics every this many rounds
	// (default 1). Set negative to disable evaluation.
	EvalEvery int
	// EvalClients is how many client models are averaged into the
	// reported test accuracy (the paper averages all K = 50; the
	// default 5 approximates that cheaply — models are near-identical
	// after filtering). Clamped to K.
	EvalClients int
	// Async switches the round lifecycle from the K-frame barrier to
	// bounded-staleness windowed rounds (sched.Async): each round
	// aggregates the uploads that arrive within Window of virtual
	// time, uploads landing up to Staleness rounds late join a later
	// round's aggregation down-weighted by sched.Weight (1/(1+s),
	// applied BEFORE the robust rule), and anything later is dropped.
	// Deferred uploads wait in a disk-backed spill buffer
	// (internal/spill). Arrival times come from the seeded virtual
	// clock sched.ArrivalDelay, so async runs are bit-reproducible;
	// with Window >= sched.DefaultLatencyScale every upload arrives
	// fresh and the trajectory is bit-identical to Async=false.
	// Requires a ServerFilter with a weighted kernel
	// (aggregate.Coordinatewise: mean, trimmed_mean, median).
	Async bool
	// Window is the async collection window in virtual time (default
	// sched.DefaultLatencyScale/4). An upload with virtual latency L
	// arrives floor(L/Window) rounds after its origin. Requires Async.
	Window time.Duration
	// Staleness is S, the bound on how many rounds late an upload may
	// arrive and still aggregate. Zero admits only fresh uploads.
	// Requires Async (the sync barrier has no stale uploads).
	Staleness int
	// SpillDir is the directory for the async deferred-upload buffer's
	// disk segment (default the OS temp dir). Requires Async.
	SpillDir string
	// SpillMem bounds the in-memory bytes of the deferred-upload
	// buffer; past it records spill to disk (default
	// spill.DefaultMemLimit; negative forces every record to disk).
	// Requires Async.
	SpillMem int
	// Workers bounds the engine's parallelism (default GOMAXPROCS,
	// resolved once by NewEngine). Every fan-out of a round runs through
	// par.For under this one bound: client training, the per-set filter
	// stage, the coordinate-parallel aggregation of every server and
	// filter (on aggregate.Request.Workers), and the GEMM kernels inside
	// each client's local SGD steps (each learner receives an equal
	// slice of the pool). Results are bit-identical for any value.
	Workers int
	// UploadCodec compresses client uploads through the shared codec
	// abstraction (internal/compress): every upload is encoded and
	// decoded before server aggregation, modeling exactly the lossy
	// channel the distributed runtime puts on the wire. Per-client codec
	// state (error feedback) persists across rounds, seeded via
	// ClientCodecSeed for engine/node parity. The zero value is dense:
	// no roundtrip runs and trajectories are bit-identical to the
	// pre-codec engine.
	UploadCodec compress.Spec
	// DownlinkCodec compresses the disseminated global models the same
	// way. Dense by default so the trimmed-mean filter sees exact
	// aggregates. It must pass Spec.ValidateBroadcast.
	DownlinkCodec compress.Spec
	// Logger, when non-nil, receives one "fedms round" record per round,
	// derived from the round's trace event (obs.Publish): node, round
	// and the same fields TraceSink receives.
	Logger *slog.Logger
	// Obs, when non-nil, registers the engine's runtime metrics
	// (fedms_engine_rounds_total and the per-stage
	// fedms_engine_stage_seconds histograms). Observation never
	// perturbs training: seeded runs are bit-identical with or without
	// it (see TestObsDeterminism*).
	Obs *obs.Registry
	// TraceSink, when non-nil, receives one obs.Event per round
	// ("engine_round") with stage timings and round statistics,
	// exportable as JSONL.
	TraceSink *obs.Trace
}

// FieldError is a Validate rejection attributed to the Config field it
// is about (in the field's own spelling), so a caller that knows where
// the value came from — a command-line binding — can name that source.
type FieldError struct {
	Field string
	Err   error
}

func (e *FieldError) Error() string { return e.Err.Error() }
func (e *FieldError) Unwrap() error { return e.Err }

func fieldErr(field, format string, args ...any) error {
	return &FieldError{Field: field, Err: fmt.Errorf("core: "+format, args...)}
}

// Validate checks the configuration and returns a normalized copy with
// defaults applied and Byzantine identities resolved. Every rejection
// is a *FieldError.
func (c Config) Validate() (Config, error) {
	if c.Clients <= 0 {
		return c, fieldErr("Clients", "Clients must be positive, got %d", c.Clients)
	}
	if c.Servers <= 0 {
		return c, fieldErr("Servers", "Servers must be positive, got %d", c.Servers)
	}
	if c.Rounds <= 0 {
		return c, fieldErr("Rounds", "Rounds must be positive, got %d", c.Rounds)
	}
	if c.LocalSteps <= 0 {
		return c, fieldErr("LocalSteps", "LocalSteps must be positive, got %d", c.LocalSteps)
	}
	if c.Upload == 0 {
		c.Upload = SparseUpload
	}
	if c.Upload != SparseUpload && c.Upload != FullUpload {
		return c, fieldErr("Upload", "unknown upload strategy %d", c.Upload)
	}
	if c.Participation == 0 {
		c.Participation = 1
	}
	if !(c.Participation > 0 && c.Participation <= 1) { // NaN fails too
		return c, fieldErr("Participation", "Participation must be in (0,1], got %v", c.Participation)
	}
	if int(c.Participation*float64(c.Clients)) < 1 {
		return c, fieldErr("Participation", "Participation %v activates no clients of %d", c.Participation, c.Clients)
	}
	if c.Attack == nil {
		c.Attack = attack.None{}
	}
	if c.Filter == nil {
		return c, fieldErr("Filter", "Filter is required (TrimmedMean for Fed-MS, Mean for vanilla)")
	}
	if c.Schedule == nil {
		return c, fieldErr("Schedule", "Schedule is required")
	}
	if len(c.ByzantineIDs) > 0 {
		c.NumByzantine = len(c.ByzantineIDs)
		seen := make(map[int]bool, len(c.ByzantineIDs))
		for _, id := range c.ByzantineIDs {
			if id < 0 || id >= c.Servers {
				return c, fieldErr("ByzantineIDs", "Byzantine server id %d out of range [0,%d)", id, c.Servers)
			}
			if seen[id] {
				return c, fieldErr("ByzantineIDs", "duplicate Byzantine server id %d", id)
			}
			seen[id] = true
		}
	}
	if c.NumByzantine < 0 {
		return c, fieldErr("NumByzantine", "NumByzantine must be non-negative")
	}
	if 2*c.NumByzantine >= c.Servers && c.NumByzantine > 0 {
		// The paper's feasibility condition: Byzantine PSs must be a
		// strict minority or no filter can help.
		return c, fieldErr("NumByzantine", "B=%d Byzantine of P=%d servers violates B < P/2", c.NumByzantine, c.Servers)
	}
	if len(c.ByzantineIDs) == 0 && c.NumByzantine > 0 {
		perm := randx.Perm(randx.Split(c.Seed, "byzantine-ids"), c.Servers)
		c.ByzantineIDs = append([]int(nil), perm[:c.NumByzantine]...)
		sort.Ints(c.ByzantineIDs)
	}
	if c.ServerFilter == nil {
		c.ServerFilter = aggregate.Mean{}
	}
	if err := checkTrimRate("Filter", c.Filter); err != nil {
		return c, err
	}
	if err := checkTrimRate("ServerFilter", c.ServerFilter); err != nil {
		return c, err
	}
	if len(c.ByzantineClientIDs) > 0 {
		c.NumByzantineClients = len(c.ByzantineClientIDs)
		seen := make(map[int]bool, len(c.ByzantineClientIDs))
		for _, id := range c.ByzantineClientIDs {
			if id < 0 || id >= c.Clients {
				return c, fieldErr("ByzantineClientIDs", "Byzantine client id %d out of range [0,%d)", id, c.Clients)
			}
			if seen[id] {
				return c, fieldErr("ByzantineClientIDs", "duplicate Byzantine client id %d", id)
			}
			seen[id] = true
		}
	}
	if c.NumByzantineClients < 0 {
		return c, fieldErr("NumByzantineClients", "NumByzantineClients must be non-negative")
	}
	if 2*c.NumByzantineClients >= c.Clients && c.NumByzantineClients > 0 {
		return c, fieldErr("NumByzantineClients", "%d Byzantine of %d clients violates the minority condition", c.NumByzantineClients, c.Clients)
	}
	if c.NumByzantineClients > 0 && c.ClientAttack == nil {
		return c, fieldErr("ClientAttack", "NumByzantineClients > 0 requires ClientAttack")
	}
	if len(c.ByzantineClientIDs) == 0 && c.NumByzantineClients > 0 {
		perm := randx.Perm(randx.Split(c.Seed, "byzantine-client-ids"), c.Clients)
		c.ByzantineClientIDs = append([]int(nil), perm[:c.NumByzantineClients]...)
		sort.Ints(c.ByzantineClientIDs)
	}
	var kerr *sched.KnobError
	if c.Window, kerr = sched.Knobs(c.Async, c.Window, c.Staleness); kerr != nil {
		return c, fieldErr(kerr.Knob, "%v", kerr)
	}
	if c.Async && !aggregate.Coordinatewise(c.ServerFilter) {
		return c, fieldErr("ServerFilter", "Async requires a ServerFilter with a weighted kernel (mean, trimmed_mean, median), got %s", c.ServerFilter.Name())
	}
	if !c.Async && c.SpillDir != "" {
		return c, fieldErr("SpillDir", "SpillDir requires Async")
	}
	if !c.Async && c.SpillMem != 0 {
		return c, fieldErr("SpillMem", "SpillMem requires Async")
	}
	if err := c.UploadCodec.Validate(); err != nil {
		return c, fieldErr("UploadCodec", "UploadCodec: %w", err)
	}
	if err := c.DownlinkCodec.ValidateBroadcast(); err != nil {
		return c, fieldErr("DownlinkCodec", "DownlinkCodec: %w", err)
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 1
	}
	if c.EvalClients <= 0 {
		c.EvalClients = 5
	}
	if c.EvalClients > c.Clients {
		c.EvalClients = c.Clients
	}
	return c, nil
}

// checkTrimRate rejects a trimmed mean, bare or inside NoFuse, whose
// trim count derives from a rate outside [0, 0.5): such a rate leaves
// no values, and TrimCount would panic on the first round.
func checkTrimRate(field string, r aggregate.Rule) error {
	if nf, ok := r.(aggregate.NoFuse); ok {
		r = nf.Rule
	}
	if tm, ok := r.(aggregate.TrimmedMean); ok && tm.Trim <= 0 && !(tm.Beta >= 0 && tm.Beta < 0.5) {
		return fieldErr(field, "%s trim rate %g out of [0, 0.5)", field, tm.Beta)
	}
	return nil
}

// IsByzantine reports whether server id is Byzantine under the resolved
// config.
func (c Config) IsByzantine(id int) bool {
	for _, b := range c.ByzantineIDs {
		if b == id {
			return true
		}
	}
	return false
}

// IsByzantineClient reports whether client id is Byzantine under the
// resolved config.
func (c Config) IsByzantineClient(id int) bool {
	for _, b := range c.ByzantineClientIDs {
		if b == id {
			return true
		}
	}
	return false
}
