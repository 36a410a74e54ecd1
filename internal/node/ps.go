// Package node implements the distributed Fed-MS runtime: parameter
// servers and clients as real networked processes speaking the
// internal/transport protocol over TCP.
//
// The topology matches the paper's system model: every client holds a
// persistent connection to every PS; there is no trusted central
// component. Each round, every client sends exactly one TypeUpload
// frame to every PS — carrying its model for the one PS selected by the
// sparse-upload rule and an empty "skip" frame to the others — which
// gives each PS a K-message barrier without any global coordinator.
// Benign PSs then broadcast their honest aggregate; Byzantine PSs run
// their configured attack (including per-client equivocation).
//
// All randomness (upload choices, attack noise) is derived from the
// shared experiment seed exactly as in the in-process engine
// (internal/core), so a distributed run reproduces the engine's results
// bit-for-bit — a property the integration tests assert.
//
// Fault tolerance is opt-in and layered on the same protocol: a
// Tolerant PS absorbs missing, corrupt and late uploads (the partial-
// participation term of the paper's analysis already budgets for
// missing models), a client with MinModels > 0 degrades gracefully when
// only P' < P global models arrive, and transport.FaultInjector drives
// deterministic chaos through both (see the chaos test tier).
package node

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/checkpoint"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/obs"
	"fedms/internal/sched"
	"fedms/internal/spill"
	"fedms/internal/transport"
)

// DefaultTimeout is the per-frame I/O timeout used when a config leaves
// Timeout zero.
const DefaultTimeout = 10 * time.Second

// DefaultHelloDeadline bounds a new connection's hello handshake when
// PSConfig.HelloDeadline is zero. It is deliberately much shorter than
// DefaultTimeout: a peer that cannot produce a tiny hello within a
// couple of seconds is a slow-loris socket or a port scanner, not a
// slow client, and its handshake slot should recycle quickly.
const DefaultHelloDeadline = 2 * time.Second

// handshakePool bounds how many hello handshakes may be pending
// concurrently. The pool is the server's only per-unadmitted-connection
// state: each slot costs one goroutine and one hello-capped read
// buffer, so the worst-case memory an unauthenticated flood can pin is
// pool × (stack + bufio buffer).
const handshakePool = 64

// DefaultAcceptBurst is the per-source token-bucket size when
// PSConfig.AcceptRate is set but AcceptBurst is zero: enough for a
// client's dial-plus-quick-retry, small enough that one abusive source
// is throttled within a handful of connections.
const DefaultAcceptBurst = 4

// ErrCrashed reports a parameter server that was crashed mid-protocol
// (via Crash or CrashAfterRound).
var ErrCrashed = errors.New("node: PS crashed")

// PSConfig configures one parameter-server node.
type PSConfig struct {
	// ID is the server index in [0, P).
	ID int
	// ListenAddr is the TCP address to bind ("127.0.0.1:0" picks a free
	// port; see PS.Addr for the resolved address).
	ListenAddr string
	// Clients is K, the number of clients that will connect.
	Clients int
	// Rounds is the number of federated rounds to serve.
	Rounds int
	// StartRound is the first round index served (default 0). A
	// restarted server sets it to the round its rejoining clients will
	// send next, so a crash-restart cycle re-enters the protocol
	// mid-sequence.
	StartRound int
	// Attack, when non-nil, makes this PS Byzantine with the given
	// behaviour.
	Attack attack.Attack
	// ServerRule is the aggregation rule applied to received uploads
	// (default Mean, the paper's benign-PS behaviour; a robust rule
	// defends against Byzantine clients).
	ServerRule aggregate.Rule
	// LossOracle scores a candidate model on a server-held holdout
	// split; when set and ServerRule implements aggregate.LossRule,
	// aggregation routes through it (see core.Config.LossOracle for
	// the contract: deterministic, pure, never mutates the model).
	// Oracle evals are counted in Obs (fedms_ps_oracle_evals_total).
	LossOracle aggregate.LossEval
	// Seed is the shared experiment seed (drives attack RNG streams).
	Seed uint64
	// Key, when non-empty, enables per-frame HMAC authentication; all
	// clients must share it.
	Key []byte
	// Timeout bounds each frame send/receive.
	Timeout time.Duration
	// Tolerant keeps the server running when clients time out, send
	// corrupt frames, or disconnect: a missing upload counts as a skip
	// (the sparse barrier already admits empty frames) and a dead
	// connection is removed from the round barrier. The default strict
	// mode aborts Serve on any client fault — the paper's synchronous
	// model.
	Tolerant bool
	// HelloDeadline bounds each frame of a new connection's hello
	// handshake (default min(DefaultHelloDeadline, Timeout)). It is the
	// most a slow-loris socket can hold a handshake slot.
	HelloDeadline time.Duration
	// AcceptRate, when positive, enables per-source token-bucket accept
	// rate limiting: each remote host may open at most AcceptRate
	// connections per second (bucket size AcceptBurst) before its
	// connections are shed at accept. Zero disables limiting.
	AcceptRate float64
	// AcceptBurst is the per-source bucket size (default
	// DefaultAcceptBurst; requires AcceptRate).
	AcceptBurst int
	// RequireToken admits only hellos carrying a valid connect token
	// (transport.ConnectToken under Key and Seed). Requires Key. New
	// clients obtain their token out of band — in this codebase the
	// shared (Key, Seed) pair lets clients mint their own — and a
	// restarted PS verifies statelessly: no issued-token table to lose.
	RequireToken bool
	// Faults, when non-nil, injects deterministic transport faults into
	// this server's dissemination links (labelled "ps<ID>->c<k>"). The
	// hello handshake is never faulted.
	Faults *transport.FaultInjector
	// CrashAfterRound, when positive, crashes the server abruptly —
	// closing the listener and every client connection — after serving
	// that many rounds. The deterministic crash hook of the chaos
	// tests; Serve returns ErrCrashed.
	CrashAfterRound int
	// DownlinkCodec, unless dense (the zero value), compresses
	// global-model frames to clients that advertised v2 support in their
	// hello; everyone else keeps dense v1 frames. It must pass
	// compress.Spec.ValidateBroadcast.
	DownlinkCodec compress.Spec
	// Async switches this server from the K-frame barrier to the
	// windowed round lifecycle (DESIGN.md §7): each round closes when
	// every connection has delivered its round marker or the Window
	// expires, whichever is first; uploads up to Staleness rounds old
	// are admitted with the deterministic down-weight sched.Weight
	// applied before ServerRule (which must have a weighted kernel —
	// see aggregate.Coordinatewise); future-round frames spill to a
	// disk-backed buffer and replay when their round opens.
	Async bool
	// Window is the async per-round aggregation window. Defaults to
	// sched.DefaultLatencyScale/4 when Async is set and Window is zero;
	// rejected outside async mode.
	Window time.Duration
	// Staleness is the async admission bound S (0 = fresh only).
	Staleness int
	// SpillDir places the deferred-upload spill segment (async only;
	// empty means the OS temp dir). SpillMem bounds the spill buffer's
	// in-memory payload bytes before records overflow to disk (0 =
	// spill.DefaultMemLimit, negative = straight to disk).
	SpillDir string
	SpillMem int
	// CheckpointPath, when set (async only), persists the scheduler
	// state after every window close — round horizon, aggregate, and
	// the flushed spill manifest — and restores it in NewPS when the
	// file exists, so a tolerant-PS restart resumes mid-window instead
	// of dropping the late uploads. The spill segment is pinned to
	// CheckpointPath + ".spill".
	CheckpointPath string

	// Logger, when non-nil, records one "ps round" line per round,
	// derived from the round's trace event (obs.Publish): the same keys
	// TraceSink receives.
	Logger *slog.Logger
	// Obs, when non-nil, registers this server's runtime counters and
	// the transport counters of its connections (fedms_ps_* and
	// fedms_transport_*, labelled by node). When nil the server counts
	// on a private registry, which Stats still reads. Observation never
	// perturbs the protocol: seeded runs are bit-identical with or
	// without it (see TestObsDeterminism*).
	Obs *obs.Registry
	// TraceSink, when non-nil, receives one obs.Event per served round
	// ("ps_round") with the round's barrier outcome and wire totals.
	TraceSink *obs.Trace
}

// PS is a running parameter-server node.
type PS struct {
	cfg PSConfig
	ln  net.Listener
	// sc is the shared round-lifecycle state machine (the same cursor
	// the in-process engine drives); spill is the async deferred-upload
	// buffer (nil in sync mode).
	sc    *sched.Scheduler
	spill *spill.Buffer
	// srv aggregates and tampers, the same core.Server the engine runs
	// per server id. Its fallback aggregate is the checkpoint's model or
	// the lowest client id's hello seed.
	srv *core.Server

	mu       sync.Mutex
	crashed  bool
	accepted []*transport.Conn // every conn ever accepted, for Crash
	// v2ok[id] records whether client id's hello advertised v2 codec
	// frames; only those clients may receive an encoded downlink.
	v2ok []bool
	// down encodes the downlink under cfg.DownlinkCodec (nil for dense).
	down compress.Codec

	// om is where this server counts: Stats reads every PSStats field
	// from it. It lives on cfg.Obs, or on a private registry when Obs is
	// nil, so the counts exist whether or not anyone exports them.
	om *psMetrics
	tm *transport.Metrics // wire counters shared by this server's conns
	// obsOn gates the wall-clock measurements (barrier wait) that feed
	// histograms and traces; with everything disabled not even
	// time.Now is called on the protocol path. It is set from the
	// config, never from om, whose registry always exists.
	obsOn bool
}

// PSStats reports a server's lifetime counters. It is a view of the
// server's collectors, not a second tally: each field reads one
// exported counter or gauge (see PS.Stats).
type PSStats struct {
	// RoundsServed counts completed aggregation/dissemination rounds.
	RoundsServed int
	// UploadsReceived counts non-empty model uploads.
	UploadsReceived int
	// UploadsMissed counts round slots where a client's upload never
	// arrived (timeout or unrecoverable corruption) — tolerant mode
	// only; strict mode aborts instead.
	UploadsMissed int
	// ClientsLost counts connections dropped mid-protocol (tolerant
	// mode only).
	ClientsLost int
	// BadAccepts counts malformed connections absorbed during the
	// accept phase (tolerant mode only; strict mode aborts instead).
	BadAccepts int
	// PrefilterDrops counts connections the zero-allocation hello
	// prefilter rejected on the header alone — bad magic, bad version,
	// first frame not a hello, or a body claim over the hello-phase cap
	// (a subset of BadAccepts).
	PrefilterDrops int
	// TokenRejects counts hellos whose connect token failed
	// verification under RequireToken (a subset of BadAccepts).
	TokenRejects int
	// RateLimited counts connections shed by the per-source accept rate
	// limiter before any handshake work (not counted in BadAccepts —
	// shedding is throughput control, not a protocol violation).
	RateLimited int
	// FloatsIn and FloatsOut count float64-equivalent model elements
	// that actually crossed the wire: dense elements for v1 frames,
	// ceil(payload bytes / 8) for codec frames. A failed downlink send
	// counts nothing.
	FloatsIn  int
	FloatsOut int
	// BytesIn and BytesOut count model payload bytes on the wire (dense
	// models count 8 bytes per element, codec payloads their encoded
	// size). Only successful sends count toward BytesOut, so under
	// injected send failures it reconciles with the surviving clients'
	// DownloadBytes sum.
	BytesIn  int
	BytesOut int
	// Async lifecycle counters, all zero in sync mode. UploadsStale
	// counts admitted down-weighted uploads (a subset of
	// UploadsReceived); UploadsDropped counts models past the staleness
	// bound; UploadsDeferred counts future-round models parked in the
	// spill buffer for replay; WindowExpired counts connections whose
	// round marker had not arrived when the window deadline fired.
	UploadsStale    int
	UploadsDropped  int
	UploadsDeferred int
	WindowExpired   int
	// SpillPeakBytes is the high-water byte size of the spill buffer's
	// disk segment (gauge fedms_ps_spill_peak_bytes).
	SpillPeakBytes int64
}

// Validate checks the configuration and returns a normalized copy with
// the defaults applied (Timeout, HelloDeadline, AcceptBurst, ServerRule,
// Window). Every rejection is a *core.FieldError naming the field it is
// about. NewPS calls it first.
func (c PSConfig) Validate() (PSConfig, error) {
	who := fmt.Sprintf("PS %d", c.ID)
	if c.Clients <= 0 {
		return c, fieldErr(who, "Clients", "Clients must be positive, got %d", c.Clients)
	}
	if c.Rounds <= 0 {
		return c, fieldErr(who, "Rounds", "Rounds must be positive, got %d", c.Rounds)
	}
	if c.CrashAfterRound < 0 {
		return c, fieldErr(who, "CrashAfterRound", "CrashAfterRound must be non-negative, got %d", c.CrashAfterRound)
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.HelloDeadline < 0 {
		return c, fieldErr(who, "HelloDeadline", "HelloDeadline must be non-negative, got %v", c.HelloDeadline)
	}
	if c.HelloDeadline == 0 {
		c.HelloDeadline = min(DefaultHelloDeadline, c.Timeout)
	}
	if !(c.AcceptRate >= 0) { // NaN fails too
		return c, fieldErr(who, "AcceptRate", "AcceptRate must be non-negative, got %v", c.AcceptRate)
	}
	if c.AcceptBurst < 0 {
		return c, fieldErr(who, "AcceptBurst", "AcceptBurst must be non-negative, got %d", c.AcceptBurst)
	}
	// The two pairings below are rejected under the field that is
	// missing, not the one that needs it.
	if c.AcceptBurst > 0 && c.AcceptRate == 0 {
		return c, fieldErr(who, "AcceptRate", "AcceptBurst requires AcceptRate")
	}
	if c.AcceptRate > 0 && c.AcceptBurst == 0 {
		c.AcceptBurst = DefaultAcceptBurst
	}
	if c.RequireToken && len(c.Key) == 0 {
		return c, fieldErr(who, "Key", "RequireToken needs a Key to derive tokens from")
	}
	if c.ServerRule == nil {
		c.ServerRule = aggregate.Mean{}
	}
	if err := c.DownlinkCodec.ValidateBroadcast(); err != nil {
		return c, fieldErr(who, "DownlinkCodec", "DownlinkCodec: %w", err)
	}
	// The window knobs follow the rule core.Config.Validate applies
	// (sched.Knobs), and the rule must carry a weighted kernel so
	// staleness down-weights reach the aggregate.
	var kerr *sched.KnobError
	if c.Window, kerr = sched.Knobs(c.Async, c.Window, c.Staleness); kerr != nil {
		return c, fieldErr(who, kerr.Knob, "%w", kerr)
	}
	if c.Async && !aggregate.Coordinatewise(c.ServerRule) {
		return c, fieldErr(who, "ServerRule", "rule %q has no weighted kernel; async staleness down-weighting requires one", c.ServerRule.Name())
	}
	if !c.Async {
		switch {
		case c.SpillDir != "":
			return c, fieldErr(who, "SpillDir", "SpillDir requires Async")
		case c.SpillMem != 0:
			return c, fieldErr(who, "SpillMem", "SpillMem requires Async")
		case c.CheckpointPath != "":
			return c, fieldErr(who, "CheckpointPath", "CheckpointPath requires Async")
		}
	}
	return c, nil
}

// fieldErr is a Validate rejection of field, worded as node who's.
func fieldErr(who, field, format string, args ...any) error {
	return &core.FieldError{Field: field, Err: fmt.Errorf("node: "+who+": "+format, args...)}
}

// NewPS binds the listener and returns the node; call Serve to run the
// protocol.
func NewPS(cfg PSConfig) (*PS, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}

	// Checkpoint restore: a restarted async server resumes at the
	// persisted round horizon, re-seeds its aggregate from the saved
	// params, and reopens the flushed spill segment so the uploads
	// still in flight toward future rounds replay instead of dropping.
	var resume []float64
	var spillBuf *spill.Buffer
	if cfg.Async {
		scfg := spill.Config{MemLimit: cfg.SpillMem, Dir: cfg.SpillDir}
		if cfg.CheckpointPath != "" {
			scfg.Path = cfg.CheckpointPath + ".spill"
			st, err := checkpoint.LoadFile(cfg.CheckpointPath)
			switch {
			case err == nil:
				a, ok, aerr := checkpoint.ReadAsyncMeta(st)
				if aerr != nil {
					return nil, fmt.Errorf("node: PS %d checkpoint: %w", cfg.ID, aerr)
				}
				if !ok {
					return nil, fmt.Errorf("node: PS %d: %s is not an async checkpoint", cfg.ID, cfg.CheckpointPath)
				}
				if a.Window != cfg.Window || a.Staleness != cfg.Staleness {
					return nil, fmt.Errorf("node: PS %d: checkpoint window/staleness %v/%d disagree with config %v/%d",
						cfg.ID, a.Window, a.Staleness, cfg.Window, cfg.Staleness)
				}
				if st.Seed != cfg.Seed {
					return nil, fmt.Errorf("node: PS %d: checkpoint %s was written under seed %d, config has %d",
						cfg.ID, cfg.CheckpointPath, st.Seed, cfg.Seed)
				}
				cfg.StartRound = st.Round
				resume = st.Params
				if a.SpillPath != "" {
					// A torn tail (crash mid-write) truncates away inside
					// Open; recovering fewer records than the manifest
					// promised is expected after such a crash.
					b, _, oerr := spill.Open(a.SpillPath, scfg)
					if oerr != nil {
						return nil, fmt.Errorf("node: PS %d spill: %w", cfg.ID, oerr)
					}
					spillBuf = b
				}
			case os.IsNotExist(err):
				// First boot: nothing to restore.
			default:
				return nil, fmt.Errorf("node: PS %d checkpoint: %w", cfg.ID, err)
			}
		}
		if spillBuf == nil {
			spillBuf = spill.New(scfg)
		}
	}
	if cfg.StartRound < 0 || cfg.StartRound >= cfg.Rounds {
		return nil, fmt.Errorf("node: PS %d StartRound %d out of range [0,%d)", cfg.ID, cfg.StartRound, cfg.Rounds)
	}
	mode := sched.Sync
	if cfg.Async {
		mode = sched.Async
	}
	sc, err := sched.New(sched.Config{
		Mode: mode, Rounds: cfg.Rounds, StartRound: cfg.StartRound,
		Window: cfg.Window, Staleness: cfg.Staleness,
	})
	if err != nil {
		return nil, fmt.Errorf("node: PS %d: %w", cfg.ID, err)
	}

	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("node: PS %d listen: %w", cfg.ID, err)
	}
	p := &PS{cfg: cfg, ln: ln, sc: sc, spill: spillBuf}
	if !cfg.DownlinkCodec.IsDense() {
		// Validate checked the spec, and a broadcast codec takes no seed.
		p.down, _ = cfg.DownlinkCodec.NewCodec(0)
	}
	p.srv = p.newServer(resume)
	p.om = newPSMetrics(cfg.Obs, cfg.ID, cfg.ServerRule.Name())
	p.tm = transport.NewMetrics(cfg.Obs, fmt.Sprintf("ps%d", cfg.ID))
	p.obsOn = cfg.Obs != nil || cfg.TraceSink != nil || cfg.Logger != nil
	return p, nil
}

// newServer builds this PS's core.Server with fallback aggregate last;
// it aggregates serially.
func (p *PS) newServer(last []float64) *core.Server {
	return core.NewServer(p.cfg.ID, p.cfg.Seed, p.cfg.ServerRule, p.cfg.LossOracle, 1, p.cfg.Attack, last)
}

// Addr returns the bound listen address.
func (p *PS) Addr() string { return p.ln.Addr().String() }

// Close shuts the listener (interrupting Serve's accept phase).
func (p *PS) Close() error { return p.ln.Close() }

// Crash abruptly terminates the server: the listener and every client
// connection close mid-protocol and Serve returns ErrCrashed. Clients
// see reset connections, exactly like a real process kill. Safe to call
// from any goroutine, at any time.
func (p *PS) Crash() {
	p.mu.Lock()
	p.crashed = true
	conns := append([]*transport.Conn(nil), p.accepted...)
	p.mu.Unlock()
	_ = p.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
}

func (p *PS) isCrashed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// Stats reads the server's lifetime counters from its collectors. The
// result is exact once Serve has returned. Mid-round each field is
// exact on its own, but the fields are not read as one snapshot, so
// two of them may straddle a round. A registry shared by two
// incarnations of one ps id (a restart reusing cfg.Obs) makes the
// stats cumulative across both, as /metrics is.
func (p *PS) Stats() PSStats {
	m := p.om
	n := func(c *obs.Counter) int { return int(c.Value()) }
	return PSStats{
		RoundsServed:    n(m.rounds),
		UploadsReceived: n(m.uploadsRecv),
		UploadsMissed:   n(m.uploadsMissed),
		ClientsLost:     n(m.clientsLost),
		BadAccepts:      n(m.badAccepts),
		PrefilterDrops:  n(m.prefilterDrops),
		TokenRejects:    n(m.tokenRejects),
		RateLimited:     n(m.rateLimited),
		FloatsIn:        n(m.floatsIn),
		FloatsOut:       n(m.floatsOut),
		BytesIn:         n(m.bytesIn),
		BytesOut:        n(m.bytesOut),
		UploadsStale:    n(m.winStale),
		UploadsDropped:  n(m.winDropped),
		UploadsDeferred: n(m.winDeferred),
		WindowExpired:   n(m.windowExpired),
		SpillPeakBytes:  m.spillPeak.Value(),
	}
}

// Serve runs the full protocol: accept K clients, serve rounds
// StartRound..Rounds-1, close. In strict mode it returns the first
// fatal error (a crashed or timed-out client aborts the round — the
// synchronous model of the paper); in Tolerant mode it serves every
// round it can and fails only when no live clients remain. A crashed
// server returns ErrCrashed.
func (p *PS) Serve() error {
	defer p.ln.Close()
	// A crashed server keeps its spill segment on disk — that is the
	// state a checkpoint restart replays; a cleanly finished one
	// removes it.
	defer func() {
		if p.spill != nil && !p.isCrashed() {
			_ = p.spill.Close()
		}
	}()

	conns := make([]*transport.Conn, p.cfg.Clients)
	p.v2ok = make([]bool, p.cfg.Clients)
	defer func() {
		for _, c := range conns {
			if c != nil {
				_ = c.Close()
			}
		}
	}()

	// Accept phase: each client introduces itself with a tiny
	// Hello{flag=id|HelloSeedFlag}, so the prefilter's hello-phase body
	// cap stays aggressive, followed by a TypeHello seed frame carrying
	// the shared initial model w_0. A rejoining client sends its current
	// model instead, seeding the fallback aggregate for empty rounds.
	//
	// Handshakes run concurrently: acceptLoop sheds rate-limited and
	// post-quota connections at Accept, prefilters the rest from peeked
	// header bytes, and runs each surviving hello in its own goroutine
	// under a short HelloDeadline — a connected-but-silent socket costs
	// one bounded handshake slot, never a stall of the accept queue. In
	// strict mode any malformed connection is fatal (the paper's
	// synchronous model); in tolerant mode it is closed, counted, and
	// absorbed — there is no lifetime budget that junk can exhaust.
	results := make(chan acceptResult)
	stop := make(chan struct{})
	// drained, once the quota is met, closes when drainAccepts has
	// settled every handshake still in flight as Serve ends (bounded by
	// HelloDeadline), so the accept counters are final when Serve
	// returns.
	var drained chan struct{}
	defer func() {
		if drained != nil {
			_ = p.ln.Close() // ends acceptLoop; drainAccepts then settles
			<-drained
		}
		close(stop)
	}()
	var quotaMet atomic.Bool
	var handshakes sync.WaitGroup
	go p.acceptLoop(results, stop, &quotaMet, &handshakes)

	seeds := make([][]float64, p.cfg.Clients)
	for admitted := 0; admitted < p.cfg.Clients; {
		r := <-results
		if r.listenerErr != nil {
			if p.isCrashed() {
				return ErrCrashed
			}
			return fmt.Errorf("node: PS %d accept: %w", p.cfg.ID, r.listenerErr)
		}
		if r.err == nil && conns[r.id] != nil {
			r.err = fmt.Errorf("node: PS %d invalid client id %d", p.cfg.ID, r.id)
		}
		if r.err != nil {
			if fatal := p.badAccept(r); fatal != nil {
				return fatal
			}
			continue
		}
		if p.cfg.Faults != nil {
			r.conn.SetFaults(p.cfg.Faults.Link(fmt.Sprintf("ps%d->c%d", p.cfg.ID, r.id)))
		}
		p.v2ok[r.id] = r.v2ok
		conns[r.id] = r.conn
		seeds[r.id] = r.seed
		p.mu.Lock()
		p.accepted = append(p.accepted, r.conn)
		crashed := p.crashed
		p.mu.Unlock()
		if crashed {
			return ErrCrashed
		}
		admitted++
	}
	quotaMet.Store(true)
	drained = make(chan struct{})
	go func() {
		defer close(drained)
		p.drainAccepts(results, &handshakes)
	}()
	// Without a checkpoint, the empty-round fallback aggregate is the
	// lowest client id's non-empty hello seed — a deterministic choice,
	// where arrival-order seeding would depend on dial timing. With one,
	// the checkpoint's model must have the clients' dimension, or every
	// upload would be measured against the wrong one.
	var hello []float64
	for _, s := range seeds {
		if len(s) > 0 {
			hello = s
			break
		}
	}
	switch d := p.srv.Dim(); {
	case d == 0:
		p.srv = p.newServer(hello)
	case hello != nil && len(hello) != d:
		return fmt.Errorf("node: PS %d: checkpoint %s holds a %d-parameter model, the clients' models have %d",
			p.cfg.ID, p.cfg.CheckpointPath, d, len(hello))
	}

	for !p.sc.Done() {
		round := p.sc.Round()
		if err := p.serveRound(round, conns); err != nil {
			if p.isCrashed() {
				return ErrCrashed
			}
			return err
		}
		if p.cfg.CrashAfterRound > 0 && round-p.cfg.StartRound+1 >= p.cfg.CrashAfterRound {
			p.Crash()
			return ErrCrashed
		}
		p.sc.Advance()
	}
	return nil
}

// acceptResult is one connection's handshake outcome, produced by a
// handshake goroutine and consumed by Serve's admission loop.
type acceptResult struct {
	conn *transport.Conn
	id   int
	v2ok bool
	// seed is the model the client introduced itself with (w_0, or a
	// rejoining client's current params).
	seed []float64
	// prefiltered marks a rejection decided by the header prefilter
	// alone; tokenReject marks a failed connect-token check. Both
	// refine err for the stats split.
	prefiltered bool
	tokenReject bool
	err         error
	// listenerErr reports the listener itself failing (close/crash):
	// the accept loop is over.
	listenerErr error
}

// acceptLoop accepts connections until the listener closes, shedding
// abusive sources at the cheapest possible point and handing the rest
// to bounded concurrent handshakes. It owns all pre-admission policy:
// per-source rate limiting (one Accept and a map lookup per shed
// conn), post-quota shedding (once all K clients are admitted every
// newcomer is junk by definition), and the handshake pool that bounds
// how much memory unauthenticated peers can pin. handshakes counts the
// handshakes whose result is not yet delivered; the listener error,
// its last send, follows every Add.
func (p *PS) acceptLoop(results chan<- acceptResult, stop <-chan struct{}, quotaMet *atomic.Bool, handshakes *sync.WaitGroup) {
	var limiter *sourceLimiter
	if p.cfg.AcceptRate > 0 {
		limiter = newSourceLimiter(p.cfg.AcceptRate, p.cfg.AcceptBurst)
	}
	sem := make(chan struct{}, handshakePool)
	for {
		raw, err := p.ln.Accept()
		if err != nil {
			select {
			case results <- acceptResult{listenerErr: err}:
			case <-stop:
			}
			return
		}
		if quotaMet.Load() {
			_ = raw.Close()
			continue
		}
		if limiter != nil && !limiter.allow(remoteHost(raw), time.Now()) {
			_ = raw.Close()
			p.om.rateLimited.Inc()
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-stop:
			_ = raw.Close()
			return
		}
		// ±1 per slot, never a stored len(sem): two releases may read
		// len and store in either order, leaving a stale depth.
		p.om.handshakePool.Add(1)
		handshakes.Add(1)
		go func() {
			defer func() {
				<-sem
				p.om.handshakePool.Add(-1)
				handshakes.Done()
			}()
			r := p.handshake(raw)
			select {
			case results <- r:
			case <-stop:
				if r.conn != nil {
					_ = r.conn.Close()
				}
			}
		}()
	}
}

// handshake runs one connection's hello under the hello deadline and
// the hello-phase body cap. The prefilter rejects junk from peeked
// header bytes before a single body byte is read or allocated; only a
// frame it admits reaches Recv. An admitted connection leaves with the
// protocol-maximum body cap and the steady-state timeout restored.
func (p *PS) handshake(raw net.Conn) acceptResult {
	conn := transport.NewConn(raw)
	conn.Timeout = p.cfg.HelloDeadline
	conn.SetKey(p.cfg.Key)
	conn.SetMetrics(p.tm)
	conn.SetMaxBodyLen(transport.HelloMaxBodyLen)
	if err := conn.PrefilterHello(transport.HelloMaxBodyLen); err != nil {
		return acceptResult{conn: conn, prefiltered: isPrefilterReject(err),
			err: fmt.Errorf("node: PS %d hello prefilter: %w", p.cfg.ID, err)}
	}
	hello, err := conn.Recv()
	if err != nil {
		return acceptResult{conn: conn, err: fmt.Errorf("node: PS %d hello: %w", p.cfg.ID, err)}
	}
	if hello.Type != transport.TypeHello {
		return acceptResult{conn: conn, err: fmt.Errorf("node: PS %d expected hello, got %s", p.cfg.ID, hello.Type)}
	}
	if hello.Flag&uint32(transport.HelloSeedFlag) == 0 {
		return acceptResult{conn: conn, err: fmt.Errorf("node: PS %d: hello without the seed flag", p.cfg.ID)}
	}
	id := int(hello.Flag &^ uint32(transport.HelloSeedFlag))
	if id < 0 || id >= p.cfg.Clients {
		return acceptResult{conn: conn, err: fmt.Errorf("node: PS %d invalid client id %d", p.cfg.ID, id)}
	}
	info := transport.ParseHelloText(hello.Text)
	if p.cfg.RequireToken && !transport.VerifyConnectToken(p.cfg.Key, p.cfg.Seed, id, info.Token) {
		return acceptResult{conn: conn, id: id, tokenReject: true,
			err: fmt.Errorf("node: PS %d client %d: connect token rejected", p.cfg.ID, id)}
	}
	// The tiny hello is in, so the peer has earned a full-size read for
	// its model seed frame.
	conn.SetMaxBodyLen(0)
	m, err := conn.Recv()
	if err != nil {
		return acceptResult{conn: conn, err: fmt.Errorf("node: PS %d client %d hello seed: %w", p.cfg.ID, id, err)}
	}
	if m.Type != transport.TypeHello || int(m.Flag) != id {
		return acceptResult{conn: conn, err: fmt.Errorf("node: PS %d client %d: malformed hello seed frame", p.cfg.ID, id)}
	}
	conn.Timeout = p.cfg.Timeout
	return acceptResult{conn: conn, id: id, v2ok: info.CodecV2, seed: m.Vec}
}

// isPrefilterReject reports whether a PrefilterHello error was a
// protocol verdict from the header bytes (countable as a prefilter
// drop) rather than an I/O failure. ErrOversizeFrame wraps ErrTooLarge
// so the over-cap case is covered.
func isPrefilterReject(err error) bool {
	return errors.Is(err, transport.ErrBadMagic) ||
		errors.Is(err, transport.ErrBadVersion) ||
		errors.Is(err, transport.ErrNotHello) ||
		errors.Is(err, transport.ErrTooLarge)
}

// badAccept handles a connection that failed the hello handshake.
// Strict mode returns the cause (fatal — the paper's synchronous
// model); tolerant mode closes the connection, counts it, and absorbs
// it unconditionally. Abuse volume is bounded upstream by the
// per-source rate limiter and the handshake pool, not by a lifetime
// budget a rotating-source flood could exhaust.
func (p *PS) badAccept(r acceptResult) error {
	if r.conn != nil {
		_ = r.conn.Close()
	}
	if !p.cfg.Tolerant {
		return r.err
	}
	p.om.badAccepts.Inc()
	if r.prefiltered {
		p.om.prefilterDrops.Inc()
	}
	if r.tokenReject {
		p.om.tokenRejects.Inc()
	}
	if p.cfg.Logger != nil {
		p.cfg.Logger.Warn("ps bad accept", "ps", p.cfg.ID, "count", p.om.badAccepts.Value(), "err", r.err)
	}
	return nil
}

// drainAccepts consumes handshake results after the accept quota is
// met so in-flight handshake slots recycle while rounds are served.
// Everything arriving here is junk by definition — all K clients are
// admitted — and is absorbed like any other bad accept, never fatally
// (even in strict mode: the accept phase it polices is over). Once the
// listener closes, no handshake starts any more: it absorbs the ones
// still in flight, waiting at most HelloDeadline, and returns.
func (p *PS) drainAccepts(results <-chan acceptResult, handshakes *sync.WaitGroup) {
	var settled <-chan struct{}
	var deadline <-chan time.Time
	for {
		select {
		case r := <-results:
			if r.listenerErr != nil {
				// acceptLoop has returned, so no Add can race this Wait.
				// Past the deadline the waiter outlives drainAccepts
				// until the last handshake's own hello deadline ends it.
				idle := make(chan struct{})
				go func() {
					handshakes.Wait()
					close(idle)
				}()
				settled, deadline = idle, time.After(p.cfg.HelloDeadline)
				continue
			}
			if r.err == nil {
				r.err = fmt.Errorf("node: PS %d: connection after accept quota", p.cfg.ID)
			}
			if p.cfg.Tolerant {
				_ = p.badAccept(r)
			} else if r.conn != nil {
				_ = r.conn.Close()
			}
		case <-settled:
			return
		case <-deadline:
			return
		}
	}
}

// serveRound is one round of the lifecycle, the same pipeline in both
// modes: replay the spill, read every connection up to its round
// marker (receive), let the scheduler rule on each frame (decide), park
// future-round models (route), reduce the admitted set (aggregate),
// checkpoint (commit), broadcast (disseminate). The sync barrier is the
// degenerate window — staleness 0 and no absolute deadline — so its
// admitted set is all-fresh and aggregate.Run serves it with the
// unweighted kernels; what stays mode-specific is data (DESIGN.md §7).
func (p *PS) serveRound(round int, conns []*transport.Conn) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("node: PS %d round %d: "+format, append([]any{p.cfg.ID, round}, args...)...)
	}
	var barrierStart time.Time
	if p.obsOn {
		barrierStart = time.Now()
	}
	// Spill records due now join before any socket is read, so a
	// checkpoint restart resumes mid-window instead of dropping the late
	// uploads.
	var entries []sched.Entry
	dropped, err := p.sc.Replay(p.spill, func(_ int, e sched.Entry) { entries = append(entries, e) })
	if err != nil {
		return fail("%w", err)
	}

	// One barrier over every live connection, bounded by the same
	// deadline when the round has a window. In a clean run every marker
	// lands well inside it and the deadline never fires — wall clock only
	// bounds the faulty case, keeping seeded runs deterministic. Only a
	// tolerant sync barrier caps its stragglers (see barrier).
	var deadline time.Time
	if w := p.sc.Window(); w > 0 {
		deadline = time.Now().Add(w)
	}
	rr := &roundReader{
		want: transport.TypeUpload, tolerant: p.cfg.Tolerant, decide: p.sc.Decide,
		spill: p.spill != nil, server: p.cfg.ID, skipped: p.om.framesSkipped,
	}
	if p.cfg.Tolerant && deadline.IsZero() {
		rr.capAfter = p.cfg.Timeout / 2
	}
	if !slices.ContainsFunc(conns, func(c *transport.Conn) bool { return c != nil }) {
		return fail("no live clients")
	}
	recvs := barrier(rr, conns, deadline)

	t := roundTally{dropped: dropped}
	if p.obsOn {
		t.barrierWait = time.Since(barrierStart)
	}
	var floatsIn int
	var deferRecs []spill.Record
	for id, r := range recvs {
		switch {
		case r.conn == nil:
			continue // retired before the round
		case r.dead && !p.cfg.Tolerant:
			return fail("client %d: %w", id, r.err)
		case r.dead:
			_ = conns[id].Close()
			conns[id] = nil
			t.lost++
			t.missed++
		case r.missed:
			t.missed++
		}
		if r.expired {
			t.expired++
		}
		entries = append(entries, r.entries...)
		deferRecs = append(deferRecs, r.deferred...)
		t.dropped += r.dropped
		t.bytesIn += r.bytes
		floatsIn += r.floats
	}
	// Deferred records enter the spill in canonical order — peer order,
	// as a reader stops at its first future-round model — not
	// reader-completion order, so the segment content — and the
	// mem-vs-disk split under a tight MemLimit — is reproducible.
	for _, rec := range deferRecs {
		if err := p.spill.Add(rec); err != nil {
			return fail("spill: %w", err)
		}
	}
	t.deferred = len(deferRecs)

	// The admitted set in canonical order — the same input order as the
	// in-process engine, for bitwise parity. Every member must have the
	// dimension this server already knows (hello seed / last aggregate;
	// with neither, the first member in canonical order fixes it): a
	// checksummed upload of any other size is a sender lying on the
	// wire, degraded like a malformed codec payload.
	sched.Sort(entries)
	dim := p.srv.Dim()
	kept := entries[:0]
	for _, e := range entries {
		if dim == 0 {
			dim = e.View.Dim()
		}
		switch {
		case e.View.Dim() == dim:
			kept = append(kept, e)
			if e.Stale > 0 {
				t.stale++
			}
		case !p.cfg.Tolerant:
			return fail("dimension mismatch from client %d: got %d, want %d", e.Client, e.View.Dim(), dim)
		default:
			p.om.framesSkipped.Inc()
			if e.Stale == 0 {
				t.missed++ // its marker carried nothing usable
			}
		}
	}
	entries = kept
	t.members = len(entries)

	// Aggregate. The rule consumes the payload views directly: a fused
	// rule never densifies the codec uploads, a rule without a payload
	// kernel falls back to densify-first inside aggregate.Run
	// (bit-identical either way).
	res, err := p.srv.Aggregate(entries)
	if err != nil {
		return fail("%w", err)
	}
	// The uploads are dead: the aggregate is the server's own buffer,
	// never a member view. Their frames' buffers go back to the
	// connections for the next round's uploads.
	release(recvs)
	p.om.rounds.Inc()
	p.om.uploadsRecv.Add(int64(t.members))
	p.om.uploadsMissed.Add(int64(t.missed))
	p.om.clientsLost.Add(int64(t.lost))
	p.om.bytesIn.Add(int64(t.bytesIn))
	p.om.floatsIn.Add(int64(floatsIn))
	if t.members > 0 {
		if res.Fused {
			p.om.aggFused.Inc()
		} else {
			p.om.aggFallback.Inc()
		}
		p.om.aggDecodeBytes.Add(int64(t.bytesIn))
		p.om.oracleEvals.Add(int64(res.OracleEvals))
	}
	p.om.barrierWait.ObserveDuration(t.barrierWait)
	if p.cfg.Async {
		p.om.winFresh.Add(int64(t.members - t.stale))
		p.om.winStale.Add(int64(t.stale))
		p.om.winDropped.Add(int64(t.dropped))
		p.om.winDeferred.Add(int64(t.deferred))
		p.om.windowExpired.Add(int64(t.expired))
		for _, e := range entries {
			p.om.staleHist.Observe(float64(e.Stale))
		}
		p.om.spillDepth.Set(int64(p.spill.Len()))
		p.om.spillBytes.Set(p.spill.MemBytes() + p.spill.DiskBytes())
	}

	// Window close is the commit point of a checkpointed server: persist
	// the round horizon, the aggregate and the flushed spill manifest, so
	// a restart re-enters the protocol exactly here.
	if p.cfg.CheckpointPath != "" {
		man, err := p.spill.Flush()
		if err != nil {
			return fail("spill flush: %w", err)
		}
		st := &checkpoint.State{Round: round + 1, Seed: p.cfg.Seed, Params: res.Out}
		checkpoint.WriteAsyncMeta(st, checkpoint.AsyncState{
			Window: p.cfg.Window, Staleness: p.cfg.Staleness,
			SpillPath: man.Path, SpillRecords: man.Records, SpillBytes: man.Bytes,
		})
		if err := checkpoint.SaveFile(p.cfg.CheckpointPath, st); err != nil {
			return fail("checkpoint: %w", err)
		}
	}
	if p.spill != nil {
		// Read after the flush: pushing the in-memory backlog to disk
		// can move the segment high-water mark.
		p.om.spillPeak.SetMax(p.spill.PeakDiskBytes())
	}

	return p.disseminate(round, conns, t)
}

// roundTally carries the aggregation phase's outcome into disseminate,
// which finishes the round's stats, trace and log line. The async
// fields stay zero in sync mode.
type roundTally struct {
	members     int
	missed      int
	lost        int
	bytesIn     int
	barrierWait time.Duration
	stale       int
	dropped     int
	deferred    int
	expired     int
}

// disseminate sends every live client the round's model from the
// server (Server.Send: the aggregate, or a Byzantine server's tampered
// one — computed once unless the attack equivocates), then tallies the
// wire totals from successful sends and emits the round's trace and log
// line. A networked PS cannot observe its peers, so no benign
// aggregates reach the attack. Shared by the sync barrier and the async
// window.
func (p *PS) disseminate(round int, conns []*transport.Conn, t roundTally) error {
	var consistent []float64
	if p.cfg.Attack == nil || !p.cfg.Attack.Equivocates() {
		consistent = p.srv.Send(round, -1, nil)
	}

	// Each send reports its outcome with the message it carried in its
	// client's slot, and the wire totals are tallied AFTER the barrier
	// from successful sends only. Counting before conn.Send completes —
	// as this code once did — inflates BytesOut/FloatsOut on failed
	// sends, and deriving FloatsOut from sent*len(agg) miscounts both
	// equivocated downlinks (per-client vectors) and codec-shrunk
	// frames. Failures are then handled in client order, so a strict PS
	// names the lowest failing client, not the first to fail.
	type sendResult struct {
		msg *transport.Message
		err error
	}
	var wg sync.WaitGroup
	outcomes := make([]sendResult, len(conns))
	for id, conn := range conns {
		if conn == nil {
			continue
		}
		out := consistent
		if out == nil {
			out = p.srv.Send(round, id, nil)
		}
		msg := &transport.Message{
			Type:   transport.TypeGlobalModel,
			Round:  uint32(round),
			Sender: uint32(p.cfg.ID),
			Vec:    out,
		}
		if p.down != nil && p.v2ok[id] {
			// Encode here, serially: the codec's scratch buffers are not
			// safe under the concurrent sends below, and each client may
			// receive a different (equivocated) vector anyway.
			enc, payload := p.down.AppendEncode(nil, out)
			msg.Enc, msg.Payload, msg.Vec = enc, payload, nil
		}
		outcomes[id].msg = msg
		wg.Add(1)
		go func(r *sendResult, conn *transport.Conn) {
			defer wg.Done()
			r.err = conn.Send(r.msg)
		}(&outcomes[id], conn)
	}
	wg.Wait()

	sent, bytesOut, floatsOut := 0, 0, 0
	var sendErrs []int
	for id, r := range outcomes {
		switch {
		case r.msg == nil: // no live connection
		case r.err != nil:
			sendErrs = append(sendErrs, id)
		default:
			sent++
			bytesOut += r.msg.ModelWireBytes()
			floatsOut += r.msg.ModelWireFloats()
		}
	}
	p.om.bytesOut.Add(int64(bytesOut))
	p.om.floatsOut.Add(int64(floatsOut))
	p.om.sendsFailed.Add(int64(len(sendErrs)))

	sendLost := 0
	for _, id := range sendErrs {
		if !p.cfg.Tolerant {
			return fmt.Errorf("node: PS %d round %d: send to client %d: %w", p.cfg.ID, round, id, outcomes[id].err)
		}
		if conns[id] != nil {
			_ = conns[id].Close()
			conns[id] = nil
			sendLost++
			p.om.clientsLost.Inc()
		}
	}

	if p.cfg.TraceSink != nil || p.cfg.Logger != nil {
		fields := map[string]float64{
			"uploads":     float64(t.members),
			"missed":      float64(t.missed),
			"lost":        float64(t.lost + sendLost),
			"sent":        float64(sent),
			"send_failed": float64(len(sendErrs)),
			"bytes_in":    float64(t.bytesIn),
			"bytes_out":   float64(bytesOut),
			"barrier_ms":  t.barrierWait.Seconds() * 1e3,
		}
		if p.cfg.Async {
			fields["stale_uploads"] = float64(t.stale)
			fields["dropped_uploads"] = float64(t.dropped)
			fields["deferred_uploads"] = float64(t.deferred)
			fields["window_expired"] = float64(t.expired)
			fields["spill_depth"] = float64(p.spill.Len())
			fields["spill_bytes"] = float64(p.spill.MemBytes() + p.spill.DiskBytes())
		}
		obs.Publish(p.cfg.TraceSink, p.cfg.Logger, "ps round",
			obs.Event{Round: round, Node: fmt.Sprintf("ps%d", p.cfg.ID), Name: "ps_round", Fields: fields})
	}
	return nil
}
