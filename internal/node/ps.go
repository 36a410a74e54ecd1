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
	"strings"
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

// maxBadFrames bounds how many consecutive corrupt or stale frames a
// tolerant reader skips before declaring the peer missing for the
// round, so a flood of garbage cannot stall a round forever.
const maxBadFrames = 8

// DefaultHelloDeadline bounds a new connection's hello handshake when
// PSConfig.HelloDeadline is zero. It is deliberately much shorter than
// DefaultTimeout: a peer that cannot produce a tiny hello within a
// couple of seconds is a slow-loris socket or a port scanner, not a
// slow client, and its handshake slot should recycle quickly.
const DefaultHelloDeadline = 2 * time.Second

// DefaultHandshakePool bounds how many hello handshakes may be pending
// concurrently when PSConfig.HandshakePool is zero. The pool is the
// server's only per-unadmitted-connection state: each slot costs one
// goroutine and one hello-capped read buffer, so the worst-case memory
// an unauthenticated flood can pin is pool × (stack + bufio buffer).
const DefaultHandshakePool = 64

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
	// Shards, when > 1, reduces each round's admitted uploads through the
	// two-tier sharded aggregation tree (aggregate.Request.Shards): the
	// payload views are routed to S column-range shards when the round
	// closes, so beyond the uploads themselves the server never holds a
	// K×d matrix — per-shard memory is O(K·d/S).
	// Bit-identical to the unsharded rule for every value (the sharded
	// differential contract); rules without a sharded kernel, and loss
	// rules under an oracle, fall back to the unsharded path. 0 or 1
	// disables sharding.
	Shards int
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
	// HelloMaxBody caps the claimed body length of a not-yet-admitted
	// connection's frames (default transport.HelloMaxBodyLen). The
	// prefilter rejects larger claims from the peeked header before any
	// allocation; admitted connections revert to the protocol maxima.
	HelloMaxBody int
	// HandshakePool bounds concurrently pending hello handshakes
	// (default DefaultHandshakePool).
	HandshakePool int
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
	// DownlinkCodec, when non-nil, compresses global-model frames to
	// clients that advertised v2 support in their hello; everyone else
	// keeps dense v1 frames. Error-feedback codecs are rejected by NewPS
	// — a broadcast shares one codec across clients, so a per-stream
	// residual would be wrong for all of them.
	DownlinkCodec compress.Codec
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

	// Logger, when non-nil, records one structured line per round (the
	// engine's slog pattern adopted by the distributed runtime).
	Logger *slog.Logger
	// Obs, when non-nil, registers this server's runtime counters and
	// the transport counters of its connections (fedms_ps_* and
	// fedms_transport_*, labelled by node). Observation never perturbs
	// the protocol: seeded runs are bit-identical with or without it
	// (see TestObsDeterminism*).
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

	mu       sync.Mutex
	crashed  bool
	accepted []*transport.Conn // every conn ever accepted, for Crash
	lastAgg  []float64
	history  [][]float64
	// aggBuf is a benign server's round-persistent aggregation output
	// buffer: without an Attack nothing retains the aggregate past the
	// round (history is only kept for Byzantine servers, the empty-round
	// path copies), so the rules write in place instead of allocating d
	// floats per round.
	aggBuf []float64
	stats  PSStats
	// v2ok[id] records whether client id's hello advertised v2 codec
	// frames; only those clients may receive an encoded downlink.
	v2ok []bool
	// parked[id] holds a future-round frame read early from client id by
	// a sync barrier (see recvRound); it never outlives its connection.
	parked []*transport.Message

	om *psMetrics         // registry mirror of stats (no-op when Obs is nil)
	tm *transport.Metrics // wire counters shared by this server's conns
	// obsOn gates the wall-clock measurements (barrier wait) that feed
	// histograms and traces; with everything disabled not even
	// time.Now is called on the protocol path.
	obsOn bool
}

// PSStats reports a server's lifetime counters.
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
	// ShardPeakBytes is the largest per-shard accumulator footprint any
	// sharded aggregation round reached (0 when Shards is disabled) —
	// the observable side of the O(K·d/S) memory contract.
	ShardPeakBytes int64
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
	// disk segment.
	SpillPeakBytes int64
}

// NewPS binds the listener and returns the node; call Serve to run the
// protocol.
func NewPS(cfg PSConfig) (*PS, error) {
	if cfg.Clients <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("node: PS %d needs positive Clients and Rounds", cfg.ID)
	}
	if cfg.CrashAfterRound < 0 {
		return nil, fmt.Errorf("node: PS %d CrashAfterRound must be non-negative", cfg.ID)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("node: PS %d Shards must be non-negative, got %d", cfg.ID, cfg.Shards)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.HelloDeadline < 0 {
		return nil, fmt.Errorf("node: PS %d HelloDeadline must be non-negative, got %v", cfg.ID, cfg.HelloDeadline)
	}
	if cfg.HelloDeadline == 0 {
		cfg.HelloDeadline = DefaultHelloDeadline
		if cfg.Timeout < cfg.HelloDeadline {
			cfg.HelloDeadline = cfg.Timeout
		}
	}
	if cfg.HelloMaxBody < 0 {
		return nil, fmt.Errorf("node: PS %d HelloMaxBody must be non-negative, got %d", cfg.ID, cfg.HelloMaxBody)
	}
	if cfg.HelloMaxBody == 0 {
		cfg.HelloMaxBody = transport.HelloMaxBodyLen
	}
	if cfg.HandshakePool < 0 {
		return nil, fmt.Errorf("node: PS %d HandshakePool must be non-negative, got %d", cfg.ID, cfg.HandshakePool)
	}
	if cfg.HandshakePool == 0 {
		cfg.HandshakePool = DefaultHandshakePool
	}
	if cfg.AcceptRate < 0 {
		return nil, fmt.Errorf("node: PS %d AcceptRate must be non-negative, got %v", cfg.ID, cfg.AcceptRate)
	}
	if cfg.AcceptBurst < 0 {
		return nil, fmt.Errorf("node: PS %d AcceptBurst must be non-negative, got %d", cfg.ID, cfg.AcceptBurst)
	}
	if cfg.AcceptBurst > 0 && cfg.AcceptRate == 0 {
		return nil, fmt.Errorf("node: PS %d AcceptBurst requires AcceptRate", cfg.ID)
	}
	if cfg.AcceptRate > 0 && cfg.AcceptBurst == 0 {
		cfg.AcceptBurst = DefaultAcceptBurst
	}
	if cfg.RequireToken && len(cfg.Key) == 0 {
		return nil, fmt.Errorf("node: PS %d RequireToken needs a Key to derive tokens from", cfg.ID)
	}
	if cfg.ServerRule == nil {
		cfg.ServerRule = aggregate.Mean{}
	}
	if cfg.DownlinkCodec != nil {
		if cfg.DownlinkCodec.Name() == "dense" {
			cfg.DownlinkCodec = nil
		} else if strings.HasPrefix(cfg.DownlinkCodec.Name(), "ef+") {
			return nil, fmt.Errorf("node: PS %d: error feedback is per-stream state and cannot be used on the broadcast downlink (codec %q)", cfg.ID, cfg.DownlinkCodec.Name())
		}
	}

	// The window knobs follow the rule core.Config.Validate applies
	// (sched.Knobs), and the rule must carry a weighted kernel so
	// staleness down-weights reach the aggregate.
	var kerr *sched.KnobError
	if cfg.Window, kerr = sched.Knobs(cfg.Async, cfg.Window, cfg.Staleness); kerr != nil {
		return nil, fmt.Errorf("node: PS %d: %w", cfg.ID, kerr)
	}
	if cfg.Async && !aggregate.Coordinatewise(cfg.ServerRule) {
		return nil, fmt.Errorf("node: PS %d: rule %q has no weighted kernel; async staleness down-weighting requires one", cfg.ID, cfg.ServerRule.Name())
	}
	if !cfg.Async && (cfg.SpillDir != "" || cfg.SpillMem != 0 || cfg.CheckpointPath != "") {
		return nil, fmt.Errorf("node: PS %d: spill/checkpoint knobs require Async mode", cfg.ID)
	}

	// Checkpoint restore: a restarted async server resumes at the
	// persisted round horizon, re-seeds its aggregate from the saved
	// params, and reopens the flushed spill segment so the uploads
	// still in flight toward future rounds replay instead of dropping.
	var restored *checkpoint.State
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
				cfg.StartRound = st.Round
				restored = st
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
	if restored != nil && len(restored.Params) > 0 {
		p.lastAgg = append([]float64(nil), restored.Params...)
	}
	p.om = newPSMetrics(cfg.Obs, cfg.ID, cfg.ServerRule.Name())
	p.tm = transport.NewMetrics(cfg.Obs, fmt.Sprintf("ps%d", cfg.ID))
	p.obsOn = cfg.Obs != nil || cfg.TraceSink != nil || cfg.Logger != nil
	return p, nil
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

// Stats returns a snapshot of the server's lifetime counters.
func (p *PS) Stats() PSStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
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
	p.parked = make([]*transport.Message, p.cfg.Clients)
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
	// model instead, seeding lastAgg for empty rounds.
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
	defer close(stop)
	var quotaMet atomic.Bool
	go p.acceptLoop(results, stop, &quotaMet)

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
	go p.drainAccepts(results, stop)
	// Seed lastAgg (the empty-round fallback aggregate) from the lowest
	// client id with a non-empty hello seed — a deterministic choice,
	// where the old arrival-order seeding depended on dial timing.
	p.mu.Lock()
	if p.lastAgg == nil {
		for _, s := range seeds {
			if len(s) > 0 {
				p.lastAgg = append([]float64(nil), s...)
				break
			}
		}
	}
	p.mu.Unlock()

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
// how much memory unauthenticated peers can pin.
func (p *PS) acceptLoop(results chan<- acceptResult, stop <-chan struct{}, quotaMet *atomic.Bool) {
	var limiter *sourceLimiter
	if p.cfg.AcceptRate > 0 {
		limiter = newSourceLimiter(p.cfg.AcceptRate, p.cfg.AcceptBurst)
	}
	sem := make(chan struct{}, p.cfg.HandshakePool)
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
			p.mu.Lock()
			p.stats.RateLimited++
			p.mu.Unlock()
			p.om.rateLimited.Inc()
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-stop:
			_ = raw.Close()
			return
		}
		p.om.handshakePool.Set(int64(len(sem)))
		go func() {
			defer func() {
				<-sem
				p.om.handshakePool.Set(int64(len(sem)))
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
	conn.SetMaxBodyLen(p.cfg.HelloMaxBody)
	if err := conn.PrefilterHello(p.cfg.HelloMaxBody); err != nil {
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
	p.mu.Lock()
	p.stats.BadAccepts++
	if r.prefiltered {
		p.stats.PrefilterDrops++
	}
	if r.tokenReject {
		p.stats.TokenRejects++
	}
	count := p.stats.BadAccepts
	p.mu.Unlock()
	p.om.badAccepts.Inc()
	if r.prefiltered {
		p.om.prefilterDrops.Inc()
	}
	if r.tokenReject {
		p.om.tokenRejects.Inc()
	}
	if p.cfg.Logger != nil {
		p.cfg.Logger.Warn("ps bad accept", "ps", p.cfg.ID, "count", count, "err", r.err)
	}
	return nil
}

// drainAccepts consumes handshake results after the accept quota is
// met so in-flight handshake slots recycle while rounds are served.
// Everything arriving here is junk by definition — all K clients are
// admitted — and is absorbed like any other bad accept, never fatally
// (even in strict mode: the accept phase it polices is over).
func (p *PS) drainAccepts(results <-chan acceptResult, stop <-chan struct{}) {
	for {
		select {
		case r := <-results:
			if r.listenerErr != nil {
				return
			}
			if r.err == nil {
				r.err = fmt.Errorf("node: PS %d: connection after accept quota", p.cfg.ID)
			}
			if p.cfg.Tolerant {
				_ = p.badAccept(r)
			} else if r.conn != nil {
				_ = r.conn.Close()
			}
		case <-stop:
			return
		}
	}
}

// roundRecv is one connection's contribution to a round: the uploads
// admitted up to (and including) its round marker — the frame tagged
// with the current round — plus the spill records of any future-round
// models that prove the marker lost. Everything fully received before a
// failure is reported, so a connection that delivers valid stale
// uploads and then dies still has them admitted and its bytes tallied.
type roundRecv struct {
	client   int
	entries  []sched.Entry
	deferred []spill.Record
	bytes    int // model payload bytes on the wire
	floats   int // float64-equivalent wire elements (ModelWireFloats)
	dropped  int // models past the staleness bound
	// missed marks a round whose marker never arrived (timeout, too much
	// corruption, a malformed marker payload, or a client already a
	// round ahead); the connection stays live. expired narrows that to a
	// window-deadline hit.
	missed, expired bool
	// dead marks an unrecoverable connection; err says why.
	dead bool
	err  error
}

func (r *roundRecv) tally(m *transport.Message) {
	r.bytes += m.ModelWireBytes()
	r.floats += m.ModelWireFloats()
}

// recvRound reads client id's frames for the current round until its
// round marker arrives, the deadline passes, or the connection fails.
// The scheduler rules on every frame: stale ones within the bound are
// admitted down-weighted, a future-round one means this round's marker
// was lost, and anything older is inadmissible. A zero deadline is the
// sync barrier — every frame gets the connection's own Timeout, and a
// timeout is a client fault; a non-zero one is the async window — the
// reader narrows the per-frame timeout toward it before each Recv
// (Recv re-arms conn.Timeout itself; see transport.Conn), and hitting
// it is an expiry, the expected face of a straggler, never a fault.
func (p *PS) recvRound(id int, conn *transport.Conn, deadline time.Time) roundRecv {
	out := roundRecv{client: id}
	windowed := !deadline.IsZero()
	saved := conn.Timeout
	defer func() { conn.Timeout = saved }()
	// skip counts one unreadable or inadmissible frame against
	// maxBadFrames and reports whether the reader should give up on
	// this round's marker.
	bad := 0
	skip := func() bool {
		p.om.framesSkipped.Inc()
		bad++
		return bad >= maxBadFrames
	}
	for {
		// A frame parked by an earlier barrier (see Defer below) is
		// consumed before the socket is read again.
		m := p.parked[id]
		p.parked[id] = nil
		var err error
		if m == nil {
			if windowed {
				remain := time.Until(deadline)
				if remain <= 0 {
					out.missed, out.expired = true, true
					return out
				}
				if saved > 0 {
					remain = min(remain, saved)
				}
				conn.Timeout = remain
			}
			m, err = conn.Recv()
		}
		if err != nil {
			unreadable := errors.Is(err, transport.ErrBadChecksum) || errors.Is(err, transport.ErrBadMAC) ||
				errors.Is(err, transport.ErrBadPayload)
			switch {
			case unreadable && p.cfg.Tolerant:
				// The stream is still frame-aligned: skip the mangled
				// frame and keep reading.
				if !skip() {
					continue
				}
				out.missed = true
			case isTimeout(err) && windowed:
				out.missed, out.expired = true, true
			case isTimeout(err) && p.cfg.Tolerant:
				out.missed = true
			default:
				out.dead, out.err = true, err
			}
			return out
		}
		d := p.sc.Decide(int(m.Round))
		// Outside the current round only a window or a tolerant barrier
		// has a use for the frame; the strict barrier is the paper's
		// synchronous model, where it is a protocol violation.
		if m.Type != transport.TypeUpload || (d.Outcome != sched.Accept && !windowed && !p.cfg.Tolerant) {
			out.dead = true
			out.err = fmt.Errorf("unexpected %s (round %d) from client %d", m.Type, m.Round, id)
			return out
		}
		model := m.Flag == 1
		switch d.Outcome {
		case sched.Accept, sched.AcceptStale:
			marker := d.Outcome == sched.Accept
			if model {
				pl, perr := m.ModelPayload()
				switch {
				case perr == nil:
					out.entries = append(out.entries, sched.Entry{
						Client: id, Origin: int(m.Round), Stale: d.Staleness, Weight: d.Weight, View: pl,
					})
					out.tally(m)
				case !p.cfg.Tolerant:
					out.dead, out.err = true, perr
					return out
				default:
					// The frame checksummed, so a malformed codec payload
					// is a sender lying on the wire, not line noise.
					// Tolerant mode degrades it to a miss (the marker is
					// consumed) or one more skipped stale frame.
					if giveUp := skip(); marker || giveUp {
						out.missed = true
						return out
					}
				}
			}
			if marker {
				return out // the marker closes this connection's round
			}
		case sched.Defer:
			// This round's marker was lost and the client has moved on.
			// With a spill buffer the model is parked there for replay
			// when its round opens; without one the frame itself is kept
			// — it is the marker of a later barrier.
			if p.spill == nil {
				p.parked[id] = m
			} else if model {
				rec := spill.Record{Client: id, Server: p.cfg.ID, Origin: int(m.Round), Due: int(m.Round)}
				if m.Payload != nil {
					rec.Enc, rec.Data = byte(m.Enc), m.Payload
				} else {
					rec.Enc, rec.Data = byte(compress.EncDense), compress.DenseWire(m.Vec)
				}
				out.deferred = append(out.deferred, rec)
				out.tally(m)
			}
			out.missed = true
			return out
		case sched.DropStale:
			if windowed {
				// A late upload the client counted as sent; the window
				// deadline bounds how many of these a round can read.
				if model {
					out.tally(m)
					out.dropped++
				}
			} else if skip() {
				// Under a barrier a past-round frame is a duplicated or
				// delayed one, and each re-arms the per-frame timeout —
				// so it counts against the garbage bound.
				out.missed = true
				return out
			}
		}
	}
}

// replaySpill pops the records parked for this round (or still
// admissibly stale) into the member set before any socket is read, so
// a checkpoint restart resumes mid-window instead of dropping the late
// uploads. Popping exactly Len() records cycles not-yet-due ones to
// the back once, preserving FIFO across rounds. A no-op without a spill
// buffer (sync mode).
func (p *PS) replaySpill() (entries []sched.Entry, dropped int, err error) {
	if p.spill == nil {
		return nil, 0, nil
	}
	for n := p.spill.Len(); n > 0; n-- {
		rec, ok, err := p.spill.Pop()
		if err != nil {
			return nil, 0, fmt.Errorf("spill: %w", err)
		}
		if !ok {
			break
		}
		d := p.sc.Decide(rec.Origin)
		switch d.Outcome {
		case sched.Defer:
			if err := p.spill.Add(rec); err != nil {
				return nil, 0, fmt.Errorf("spill requeue: %w", err)
			}
		case sched.Accept, sched.AcceptStale:
			pl, perr := compress.ParsePayload(compress.Encoding(rec.Enc), rec.Data)
			if perr != nil {
				// The segment frame checksummed, so this payload was
				// malformed at the sender; drop it like any other
				// inadmissible upload.
				dropped++
				continue
			}
			entries = append(entries, sched.Entry{
				Client: rec.Client, Origin: rec.Origin, Stale: d.Staleness, Weight: d.Weight, View: pl,
			})
		case sched.DropStale:
			dropped++
		}
	}
	return entries, dropped, nil
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
	entries, dropped, err := p.replaySpill()
	if err != nil {
		return fail("%w", err)
	}

	// One reader per connection, all bounded by the same deadline when
	// the round has a window. In a clean run every marker lands well
	// inside it and the deadline never fires — wall clock only bounds
	// the faulty case, keeping seeded runs deterministic.
	var deadline time.Time
	if w := p.sc.Window(); w > 0 {
		deadline = time.Now().Add(w)
	}
	live := 0
	results := make(chan roundRecv, len(conns))
	waiting := make([]bool, len(conns))
	for id, conn := range conns {
		if conn == nil {
			continue
		}
		live++
		waiting[id] = true
		go func(id int, conn *transport.Conn) {
			results <- p.recvRound(id, conn, deadline)
		}(id, conn)
	}
	if live == 0 {
		return fail("no live clients")
	}

	t := roundTally{dropped: dropped}
	var floatsIn int
	var deferRecs []spill.Record
	var firstErr error
	for i := 0; i < live; i++ {
		r := <-results
		waiting[r.client] = false
		if i == 0 && p.cfg.Tolerant && deadline.IsZero() {
			// Straggler cap of the tolerant barrier. The first result
			// proves this round's uploads are flowing, so holdouts — in
			// practice frames the fault layer dropped — get only
			// Timeout/2 more before they count as missed. Without this,
			// a dropped frame stalls the round by the full Timeout,
			// which is exactly the receive window the OTHER servers
			// armed for the next round: honest uploads then land on the
			// deadline to the scheduler's whim, and seeded reruns
			// diverge. Capping the stall at half the window restores a
			// Timeout/2 margin, keeping the injected fault schedule the
			// only source of misses. (A window needs no cap: its
			// deadline already bounds every reader.)
			dl := time.Now().Add(p.cfg.Timeout / 2)
			for id, w := range waiting {
				if w {
					_ = conns[id].SetRecvDeadline(dl)
				}
			}
		}
		switch {
		case r.dead && !p.cfg.Tolerant:
			if firstErr == nil {
				firstErr = fail("client %d: %w", r.client, r.err)
			}
			continue
		case r.dead:
			_ = conns[r.client].Close()
			conns[r.client] = nil
			p.parked[r.client] = nil
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
	if p.obsOn {
		t.barrierWait = time.Since(barrierStart)
	}
	if firstErr != nil {
		return firstErr
	}
	// Deferred records enter the spill in canonical order, not
	// reader-completion order, so the segment content — and the
	// mem-vs-disk split under a tight MemLimit — is reproducible.
	slices.SortFunc(deferRecs, func(a, b spill.Record) int {
		return sched.Compare(a.Client, a.Origin, b.Client, b.Origin)
	})
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
	dim := len(p.lastAgg)
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
	// (bit-identical either way). A benign server writes into its
	// round-persistent buffer (nothing retains its aggregate past the
	// round); a Byzantine server allocates fresh — its history feeds the
	// adaptive attack.
	var res aggregate.Result
	if len(entries) == 0 {
		if p.lastAgg == nil {
			return fail("no uploads and no previous aggregate")
		}
		res.Out = append([]float64(nil), p.lastAgg...)
	} else {
		benign := p.cfg.Attack == nil
		req := aggregate.Request{Rule: p.cfg.ServerRule, Oracle: p.cfg.LossOracle, Shards: p.cfg.Shards}
		req.Views, req.Weights = sched.Members(entries)
		if benign {
			req.Dst = p.aggBuf
		}
		res = aggregate.Run(req)
		if benign {
			p.aggBuf = res.Out
		}
	}
	agg := res.Out

	p.mu.Lock()
	p.lastAgg = agg
	p.stats.RoundsServed++
	p.stats.UploadsReceived += t.members
	p.stats.UploadsMissed += t.missed
	p.stats.UploadsStale += t.stale
	p.stats.UploadsDropped += t.dropped
	p.stats.UploadsDeferred += t.deferred
	p.stats.WindowExpired += t.expired
	p.stats.ClientsLost += t.lost
	p.stats.BytesIn += t.bytesIn
	p.stats.FloatsIn += floatsIn
	if res.PeakBytes > p.stats.ShardPeakBytes {
		p.stats.ShardPeakBytes = res.PeakBytes
	}
	shardPeak := p.stats.ShardPeakBytes
	p.mu.Unlock()
	p.om.rounds.Inc()
	p.om.uploadsRecv.Add(int64(t.members))
	p.om.uploadsMissed.Add(int64(t.missed))
	p.om.clientsLost.Add(int64(t.lost))
	p.om.bytesIn.Add(int64(t.bytesIn))
	p.om.floatsIn.Add(int64(floatsIn))
	if t.members > 0 {
		switch {
		case res.Sharded:
			p.om.aggSharded.Inc()
			p.om.shardPeakBytes.Set(shardPeak)
		case res.Fused:
			p.om.aggFused.Inc()
		default:
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
		if p.cfg.Obs != nil {
			for _, e := range entries {
				p.om.staleHist.Observe(float64(e.Stale))
			}
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
		st := &checkpoint.State{Round: round + 1, Seed: p.cfg.Seed, Params: agg}
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
		p.mu.Lock()
		if pd := p.spill.PeakDiskBytes(); pd > p.stats.SpillPeakBytes {
			p.stats.SpillPeakBytes = pd
		}
		p.mu.Unlock()
	}

	return p.disseminate(round, agg, conns, t)
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

// disseminate broadcasts the round aggregate to every live client —
// with Byzantine tampering where configured — then tallies the wire
// totals from successful sends and emits the round's trace and log
// line. The history records honest aggregates only (adaptive adversary
// knowledge), exactly as in the engine. Shared verbatim by the sync
// barrier and the async window (pure code motion from serveRound; the
// sync trace stays bit-identical).
func (p *PS) disseminate(round int, agg []float64, conns []*transport.Conn, t roundTally) error {
	var consistentTampered []float64
	if p.cfg.Attack != nil && !p.cfg.Attack.Equivocates() {
		ctx := &attack.Context{
			Round:   round,
			Server:  p.cfg.ID,
			Client:  -1,
			TrueAgg: agg,
			History: p.history,
			RNG:     core.AttackRNG(p.cfg.Seed, p.cfg.ID, round, -1, false),
		}
		consistentTampered = p.cfg.Attack.Tamper(ctx)
	}

	// Each send reports its outcome with the message it carried, and
	// the wire totals are tallied AFTER the barrier from successful
	// sends only. Counting before conn.Send completes — as this code
	// once did — inflates BytesOut/FloatsOut on failed sends, and
	// deriving FloatsOut from sent*len(agg) miscounts both equivocated
	// downlinks (per-client vectors) and codec-shrunk frames.
	type sendResult struct {
		client int
		msg    *transport.Message
		err    error
	}
	var wg sync.WaitGroup
	outcomes := make(chan sendResult, len(conns))
	for id, conn := range conns {
		if conn == nil {
			continue
		}
		out := agg
		switch {
		case p.cfg.Attack == nil:
		case consistentTampered != nil:
			out = consistentTampered
		default:
			ctx := &attack.Context{
				Round:   round,
				Server:  p.cfg.ID,
				Client:  id,
				TrueAgg: agg,
				History: p.history,
				RNG:     core.AttackRNG(p.cfg.Seed, p.cfg.ID, round, id, true),
			}
			out = p.cfg.Attack.Tamper(ctx)
		}
		msg := &transport.Message{
			Type:   transport.TypeGlobalModel,
			Round:  uint32(round),
			Sender: uint32(p.cfg.ID),
			Vec:    out,
		}
		if p.cfg.DownlinkCodec != nil && p.v2ok[id] {
			// Encode here, serially: the codec's scratch buffers are not
			// safe under the concurrent sends below, and each client may
			// receive a different (equivocated) vector anyway.
			enc, payload := p.cfg.DownlinkCodec.AppendEncode(nil, out)
			msg.Enc, msg.Payload, msg.Vec = enc, payload, nil
		}
		wg.Add(1)
		go func(id int, conn *transport.Conn, msg *transport.Message) {
			defer wg.Done()
			outcomes <- sendResult{client: id, msg: msg, err: conn.Send(msg)}
		}(id, conn, msg)
	}
	wg.Wait()
	close(outcomes)

	sent, bytesOut, floatsOut := 0, 0, 0
	var sendErrs []sendResult
	for r := range outcomes {
		if r.err != nil {
			sendErrs = append(sendErrs, r)
			continue
		}
		sent++
		bytesOut += r.msg.ModelWireBytes()
		floatsOut += r.msg.ModelWireFloats()
	}
	p.mu.Lock()
	p.stats.FloatsOut += floatsOut
	p.stats.BytesOut += bytesOut
	p.mu.Unlock()
	p.om.bytesOut.Add(int64(bytesOut))
	p.om.floatsOut.Add(int64(floatsOut))
	p.om.sendsFailed.Add(int64(len(sendErrs)))
	// Only a Byzantine server reads its history (adaptive-adversary
	// knowledge); a benign one retaining it would grow O(T·d) unread and
	// pin the reused aggregation buffer.
	if p.cfg.Attack != nil {
		p.history = append(p.history, agg)
	}

	sendLost := 0
	for _, e := range sendErrs {
		if !p.cfg.Tolerant {
			return fmt.Errorf("node: PS %d round %d: send to client %d: %w", p.cfg.ID, round, e.client, e.err)
		}
		if conns[e.client] != nil {
			_ = conns[e.client].Close()
			conns[e.client] = nil
			sendLost++
			p.mu.Lock()
			p.stats.ClientsLost++
			p.mu.Unlock()
			p.om.clientsLost.Inc()
		}
	}

	if p.cfg.TraceSink != nil {
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
		p.cfg.TraceSink.Emit(obs.Event{
			Round:  round,
			Node:   fmt.Sprintf("ps%d", p.cfg.ID),
			Name:   "ps_round",
			Fields: fields,
		})
	}
	if p.cfg.Logger != nil {
		attrs := []any{
			"ps", p.cfg.ID, "round", round,
			"uploads", t.members, "missed", t.missed, "lost", t.lost + sendLost,
			"bytes_in", t.bytesIn, "bytes_out", bytesOut,
			"barrier_ms", t.barrierWait.Seconds() * 1e3,
		}
		if p.cfg.Async {
			attrs = append(attrs, "stale", t.stale, "dropped", t.dropped,
				"deferred", t.deferred, "window_expired", t.expired,
				"spill_depth", p.spill.Len())
		}
		p.cfg.Logger.Info("ps round", attrs...)
	}
	return nil
}

// isTimeout reports whether err is a network timeout (deadline
// exceeded), as opposed to a dead connection.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// ErrAborted reports a node shut down by its peer.
var ErrAborted = errors.New("node: aborted by peer")
