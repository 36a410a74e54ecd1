// Command fedms-node runs one node of a distributed Fed-MS deployment
// over TCP: a parameter server, a client, or (for demos) the whole
// federation in one process.
//
// All nodes must share the same -seed and federation flags so they
// derive identical datasets, partitions, Byzantine identities and
// randomness — there is no coordinator distributing configuration.
//
// Start P parameter servers:
//
//	fedms-node -role ps -id 0 -listen 127.0.0.1:7000 -clients 8 -servers 3 -byzantine 1 -attack noise
//	fedms-node -role ps -id 1 -listen 127.0.0.1:7001 ...
//	fedms-node -role ps -id 2 -listen 127.0.0.1:7002 ...
//
// Then K clients:
//
//	fedms-node -role client -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 ...
//
// Or run everything locally:
//
//	fedms-node -role local -clients 8 -servers 3 -byzantine 1 -attack noise
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"fedms"
	"fedms/cmd/internal/fedflags"
	"fedms/internal/attack"
	"fedms/internal/core"
	"fedms/internal/node"
	"fedms/internal/obs"
	"fedms/internal/transport"
)

// options holds the deployment flags — where this node listens and
// dials, how it authenticates, what it tolerates — beside the shared
// federation spec every node of the run must agree on.
type options struct {
	spec *fedflags.Binding

	role   string
	id     int
	listen string
	peers  string

	clientAtk string
	key       string
	timeout   time.Duration

	helloDeadline time.Duration
	acceptRate    float64
	acceptBurst   int
	connectToken  bool

	faultDrop     float64
	faultCorrupt  float64
	faultDup      float64
	faultDelay    float64
	faultMaxDelay time.Duration
	faultSeed     uint64
	faultCrash    int
	minModels     int

	ckptPath     string
	latencyScale time.Duration

	metricsAddr string
	logRounds   bool
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedms-node:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("fedms-node", flag.ContinueOnError)
	o := declareFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

// declareFlags declares the shared federation flags (fedflags) and this
// command's own on fs.
func declareFlags(fs *flag.FlagSet) *options {
	o := &options{spec: fedflags.Bind(fs, fedflags.NodeDefaults)}
	spec := &o.spec.Config
	fs.StringVar(&o.role, "role", "local", "node role: ps|client|local")
	fs.IntVar(&o.id, "id", 0, "node id (server index for ps, client index for client)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:0", "listen address (ps role)")
	fs.StringVar(&o.peers, "peers", "", "comma-separated PS addresses in server-id order (client role)")
	fs.StringVar(&o.clientAtk, o.spec.Flag("client-attack", "ClientAttack"), "", "Byzantine client upload attack (upload_signflip|upload_noise|upload_random|upload_scaled)")
	fs.IntVar(&spec.NumByzantineClients, o.spec.Flag("byzantine-clients", "NumByzantineClients"), 0, "number of Byzantine clients")
	fs.StringVar(&o.key, "key", "", "shared secret enabling per-frame HMAC authentication")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-frame network timeout")
	fs.DurationVar(&o.helloDeadline, "hello-deadline", 0, "PS per-frame deadline for a new connection's hello handshake (0 = default; slow-loris sockets are cut here)")
	fs.Float64Var(&o.acceptRate, "accept-rate", 0, "PS per-source accept rate limit in connections/second (0 = unlimited)")
	fs.IntVar(&o.acceptBurst, "accept-burst", 0, "per-source accept token-bucket size (requires -accept-rate; 0 = default)")
	fs.BoolVar(&o.connectToken, "connect-token", false, "PS admits only hellos presenting a valid connect token derived from -key (clients mint theirs automatically)")
	fs.Float64Var(&o.faultDrop, "fault-drop", 0, "per-frame probability a sent frame is silently dropped")
	fs.Float64Var(&o.faultCorrupt, "fault-corrupt", 0, "per-frame probability one bit of a sent frame is flipped")
	fs.Float64Var(&o.faultDup, "fault-duplicate", 0, "per-frame probability a sent frame is written twice")
	fs.Float64Var(&o.faultDelay, "fault-delay", 0, "per-frame probability a sent frame is delayed")
	fs.DurationVar(&o.faultMaxDelay, "fault-max-delay", 20*time.Millisecond, "upper bound on injected frame delay")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 0, "fault schedule seed (0 = derive from -seed)")
	fs.IntVar(&o.faultCrash, "fault-crash", 0, "crash this PS after serving N rounds (ps role; local role crashes the last PS)")
	fs.IntVar(&o.minModels, "min-models", 0, "tolerant client: accept a round with >= this many global models (0 = strict, require all P)")
	fs.StringVar(&o.ckptPath, "checkpoint", "", "PS checkpoint file persisting the round horizon and spill manifest each window; resumes after restart (requires -async)")
	fs.DurationVar(&o.latencyScale, "latency-scale", 0, "client virtual upload-latency scale; an upload arrives floor(U[0,scale)/window) rounds after its origin (0 = default; requires -async)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus metrics at /metrics and pprof at /debug/pprof/ on this address (e.g. 127.0.0.1:9090)")
	fs.BoolVar(&o.logRounds, "log", false, "structured per-round logging (log/slog) to stderr")
	return o
}

// resolve turns the parsed flags into the validated federation spec —
// fedms.Resolve, by way of the binding that names the offending flag —
// after folding in this command's own spec-shaping flags, and checks
// the deployment flags against it. It opens no socket; run() calls it
// before any, the metrics listener included, so a bad flag never leaves
// a half-started node behind.
func (o *options) resolve(st *obsState) (core.Config, error) {
	spec := &o.spec.Config
	if o.clientAtk != "" {
		var err error
		if spec.ClientAttack, err = attack.ByUploadName(o.clientAtk); err != nil {
			return core.Config{}, fmt.Errorf("-client-attack: %w", err)
		}
	}
	spec.Obs = st.reg
	cfg, err := o.spec.Resolve()
	if err != nil {
		return cfg, err
	}
	cfg.Logger = st.logger
	// The wire protocol has no round-robin upload. The derivation
	// rejects it; asking here, not in the role, keeps that rejection
	// before the metrics listener binds.
	if _, err := node.PSConfigFor(cfg, 0); err != nil {
		return cfg, fmt.Errorf("-upload: %w", err)
	}

	// Reject an unsatisfiable quorum before any server starts listening:
	// a client failing this check after the PSs are up would leave them
	// blocked in Accept with nobody left to connect.
	if o.minModels < 0 {
		return cfg, fmt.Errorf("-min-models %d is negative", o.minModels)
	}
	if o.minModels > cfg.Servers {
		return cfg, fmt.Errorf("-min-models %d exceeds -servers %d", o.minModels, cfg.Servers)
	}
	if o.faultDrop < 0 || o.faultDrop > 1 || o.faultCorrupt < 0 || o.faultCorrupt > 1 ||
		o.faultDup < 0 || o.faultDup > 1 || o.faultDelay < 0 || o.faultDelay > 1 {
		return cfg, fmt.Errorf("fault rates must be in [0, 1]")
	}
	if !cfg.Async && o.ckptPath != "" {
		return cfg, fmt.Errorf("-checkpoint requires -async")
	}
	if !cfg.Async && o.latencyScale != 0 {
		return cfg, fmt.Errorf("-latency-scale requires -async")
	}
	if o.latencyScale < 0 {
		return cfg, fmt.Errorf("-latency-scale: must be non-negative, got %v", o.latencyScale)
	}
	// Ingest knobs mirror node.NewPS validation but name the flag.
	if o.helloDeadline < 0 {
		return cfg, fmt.Errorf("-hello-deadline: must be non-negative, got %v", o.helloDeadline)
	}
	if o.acceptRate < 0 {
		return cfg, fmt.Errorf("-accept-rate: must be non-negative, got %v", o.acceptRate)
	}
	if o.acceptBurst < 0 {
		return cfg, fmt.Errorf("-accept-burst: must be non-negative, got %d", o.acceptBurst)
	}
	if o.acceptBurst > 0 && o.acceptRate == 0 {
		return cfg, fmt.Errorf("-accept-burst requires -accept-rate")
	}
	if o.connectToken && o.key == "" {
		return cfg, fmt.Errorf("-connect-token requires -key (tokens are derived from the shared secret)")
	}
	return cfg, nil
}

// faultInjector builds the process-wide fault injector, or nil when no
// fault rate is configured. All nodes of a chaos run must share the
// same fault seed to agree on the schedule they are rehearsing.
func (o *options) faultInjector() *transport.FaultInjector {
	cfg := transport.FaultConfig{
		Seed:      o.faultSeed,
		Drop:      o.faultDrop,
		Corrupt:   o.faultCorrupt,
		Duplicate: o.faultDup,
		Delay:     o.faultDelay,
		MaxDelay:  o.faultMaxDelay,
	}
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Seed == 0 {
		cfg.Seed = o.spec.Config.Seed
	}
	return transport.NewFaultInjector(cfg)
}

// tolerant reports whether the node runtime should survive faults
// rather than fail fast on the first one.
func (o *options) tolerant() bool {
	return o.minModels > 0 || o.faultCrash > 0 || o.faultInjector() != nil
}

// psTimeout is the upload-barrier timeout for parameter servers. In
// tolerant mode it is half the client round timeout: a PS stalled by
// one dropped upload still broadcasts with half the window left, so
// the surviving clients' receive deadline does not expire at the same
// instant the late model arrives.
func (o *options) psTimeout() time.Duration {
	if o.tolerant() {
		return o.timeout / 2
	}
	return o.timeout
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	role, ok := map[string]func(*options, core.Config) error{
		"ps": runPS, "client": runClientRole, "local": runLocal,
	}[o.role]
	if !ok {
		return fmt.Errorf("unknown role %q", o.role)
	}
	st := o.newObs()
	cfg, err := o.resolve(st)
	if err != nil {
		return err
	}
	if err := st.serveMetrics(o.metricsAddr); err != nil {
		return err
	}
	defer st.close()

	err = role(o, cfg)
	// The trace is written even when the run failed: a chaos run that
	// died mid-federation is exactly when the trace matters.
	if o.spec.TracePath != "" {
		if werr := cfg.TraceSink.WriteFile(o.spec.TracePath); werr != nil && err == nil {
			err = werr
		} else if werr == nil {
			fmt.Printf("fedms-node: wrote %d trace events to %s\n", cfg.TraceSink.Len(), o.spec.TracePath)
		}
	}
	return err
}

// obsState bundles the process-wide observability wiring that is not
// part of the federation spec: the metrics registry and the HTTP server
// exposing it (when -metrics-addr is set) and an optional per-round
// slog logger. All fields may be nil — the runtime treats nil as
// disabled.
type obsState struct {
	reg    *obs.Registry
	logger *slog.Logger
	ln     net.Listener
	srv    *http.Server
}

// newObs builds the observability state from the flags. The metrics
// server starts later (serveMetrics), once the flags have resolved.
func (o *options) newObs() *obsState {
	st := &obsState{}
	if o.logRounds {
		st.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if o.metricsAddr != "" {
		st.reg = obs.NewRegistry()
	}
	return st
}

// serveMetrics starts the HTTP server exposing the registry in
// Prometheus text format plus net/http/pprof; a no-op without
// -metrics-addr.
func (st *obsState) serveMetrics(addr string) error {
	if st.reg == nil {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-metrics-addr %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", st.reg)
	// The default pprof handlers register on http.DefaultServeMux; this
	// server uses its own mux, so mount them explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	st.ln = ln
	st.srv = &http.Server{Handler: mux}
	go func() { _ = st.srv.Serve(ln) }()
	fmt.Printf("fedms-node: metrics on http://%s/metrics (pprof at /debug/pprof/)\n", st.addr())
	return nil
}

// addr returns the metrics server's bound address ("" when disabled).
func (st *obsState) addr() string {
	if st.ln == nil {
		return ""
	}
	return st.ln.Addr().String()
}

func (st *obsState) close() {
	if st.srv != nil {
		_ = st.srv.Close()
	}
}

// deployPS applies the deployment flags to a server's derived
// configuration (node.PSConfigFor). Where it listens, what it
// checkpoints to and whether it crashes are the role's to add.
func (o *options) deployPS(ps *node.PSConfig, fi *transport.FaultInjector) {
	ps.Key = []byte(o.key)
	ps.Timeout = o.psTimeout()
	ps.Tolerant = o.tolerant()
	ps.HelloDeadline = o.helloDeadline
	ps.AcceptRate = o.acceptRate
	ps.AcceptBurst = o.acceptBurst
	ps.RequireToken = o.connectToken
	ps.Faults = fi
}

// deployClient applies them to a client's (node.ClientConfigFor), in
// both the client and the local role.
func (o *options) deployClient(cl *node.ClientConfig, fi *transport.FaultInjector) {
	cl.LatencyScale = o.latencyScale
	cl.Key = []byte(o.key)
	cl.Timeout = o.timeout
	cl.EvalEvery = 5
	cl.MinModels = o.minModels
	cl.Faults = fi
	cl.Redial = o.minModels > 0
}

// runClient and newLocal are node.RunClient and node.NewLocal; the tests
// substitute them to observe the configuration each role runs a client
// under.
var (
	runClient = node.RunClient
	newLocal  = node.NewLocal
)

// psRole describes a server for the start-up line.
func psRole(ps node.PSConfig) string {
	if ps.Attack == nil {
		return "benign"
	}
	return "BYZANTINE(" + ps.Attack.Name() + ")"
}

func runPS(o *options, cfg core.Config) error {
	pc, err := node.PSConfigFor(cfg, o.id)
	if err != nil {
		return err
	}
	o.deployPS(&pc, o.faultInjector())
	pc.ListenAddr, pc.CheckpointPath, pc.CrashAfterRound = o.listen, o.ckptPath, o.faultCrash
	ps, err := node.NewPS(pc)
	if err != nil {
		return err
	}
	fmt.Printf("fedms-node: PS %d (%s) listening on %s\n", o.id, psRole(pc), ps.Addr())
	return ps.Serve()
}

func runClientRole(o *options, cfg core.Config) error {
	if o.peers == "" {
		return fmt.Errorf("client role requires -peers")
	}
	servers := strings.Split(o.peers, ",")
	if len(servers) != cfg.Servers {
		return fmt.Errorf("-peers lists %d addresses, want P=%d", len(servers), cfg.Servers)
	}
	// The derivation checks -id before any learner is built.
	cc, err := node.ClientConfigFor(cfg, o.id, nil)
	if err != nil {
		return err
	}
	learners, err := fedms.BuildLearners(o.spec.Config)
	if err != nil {
		return err
	}
	cc.Learner, cc.Servers = learners[o.id], servers
	o.deployClient(&cc, o.faultInjector())
	stats, err := runClient(cc)
	if err != nil {
		return err
	}
	for _, st := range stats {
		if st.Evaluated {
			fmt.Printf("client %d round %d: train_loss=%.4f test_acc=%.4f\n",
				o.id, st.Round, st.TrainLoss, st.TestAcc)
		}
	}
	return nil
}

// runLocal runs the whole federation in one process over loopback TCP.
func runLocal(o *options, cfg core.Config) error {
	// One injector serves the whole in-process federation; separate
	// processes reconstruct the identical schedule from the shared
	// fault seed.
	fi := o.faultInjector()
	learners, err := fedms.BuildLearners(o.spec.Config)
	if err != nil {
		return err
	}
	last := cfg.Servers - 1
	roles := make([]string, cfg.Servers)
	l, err := newLocal(cfg, learners, func(pc *node.PSConfig) {
		o.deployPS(pc, fi)
		if pc.ID == last {
			pc.CrashAfterRound = o.faultCrash
		}
		// Every local PS gets its own checkpoint file: they would
		// otherwise race on the shared path and spill segment.
		if o.ckptPath != "" {
			pc.CheckpointPath = fmt.Sprintf("%s.ps%d", o.ckptPath, pc.ID)
		}
		roles[pc.ID] = psRole(*pc)
	}, func(cc *node.ClientConfig) { o.deployClient(cc, fi) })
	if err != nil {
		return err
	}
	for i, addr := range l.Addrs {
		fmt.Printf("fedms-node: PS %d (%s) on %s\n", i, roles[i], addr)
	}
	clientStats, psStats, err := l.Run()
	// A scheduled crash is the experiment, not a failure.
	if o.faultCrash > 0 && psStats[last].RoundsServed == o.faultCrash {
		fmt.Printf("fedms-node: PS crashed after %d rounds (scheduled)\n", o.faultCrash)
	}
	if err != nil {
		return err
	}
	var lastEval float64
	for _, st := range clientStats[0] {
		if st.Evaluated {
			fmt.Printf("round %d: client0 train_loss=%.4f test_acc=%.4f\n",
				st.Round, st.TrainLoss, st.TestAcc)
			lastEval = st.TestAcc
		}
	}
	fmt.Printf("fedms-node: distributed run complete, final client0 accuracy %.4f\n", lastEval)
	return nil
}
