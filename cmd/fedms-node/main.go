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

	// ps and client hold the deployment settings their flags write in
	// the node configs' own fields (deployPS and deployClient copy them
	// onto each derived configuration); faults holds the fault flags.
	ps     node.PSConfig
	client node.ClientConfig
	faults transport.FaultConfig

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
	fs.StringVar(&o.clientAtk, o.spec.Flag("client-attack", "ClientAttack"), "", "Byzantine client upload attack: "+strings.Join(attack.UploadNames(), "|"))
	fs.IntVar(&spec.NumByzantineClients, o.spec.Flag("byzantine-clients", "NumByzantineClients"), 0, "number of Byzantine clients")
	fs.StringVar(&o.key, o.spec.Flag("key", "Key"), "", "shared secret enabling per-frame HMAC authentication")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-frame network timeout")
	fs.DurationVar(&o.ps.HelloDeadline, o.spec.Flag("hello-deadline", "HelloDeadline"), 0, "PS per-frame deadline for a new connection's hello handshake (0 = default; slow-loris sockets are cut here)")
	fs.Float64Var(&o.ps.AcceptRate, o.spec.Flag("accept-rate", "AcceptRate"), 0, "PS per-source accept rate limit in connections/second (0 = unlimited)")
	fs.IntVar(&o.ps.AcceptBurst, o.spec.Flag("accept-burst", "AcceptBurst"), 0, "per-source accept token-bucket size (requires -accept-rate; 0 = default)")
	fs.BoolVar(&o.ps.RequireToken, "connect-token", false, "PS admits only hellos presenting a valid connect token derived from -key (clients mint theirs automatically)")
	fs.Float64Var(&o.faults.Drop, "fault-drop", 0, "per-frame probability a sent frame is silently dropped")
	fs.Float64Var(&o.faults.Corrupt, "fault-corrupt", 0, "per-frame probability one bit of a sent frame is flipped")
	fs.Float64Var(&o.faults.Duplicate, "fault-duplicate", 0, "per-frame probability a sent frame is written twice")
	fs.Float64Var(&o.faults.Delay, "fault-delay", 0, "per-frame probability a sent frame is delayed")
	fs.DurationVar(&o.faults.MaxDelay, "fault-max-delay", 20*time.Millisecond, "upper bound on injected frame delay")
	fs.Uint64Var(&o.faults.Seed, "fault-seed", 0, "fault schedule seed (0 = derive from -seed)")
	fs.IntVar(&o.ps.CrashAfterRound, o.spec.Flag("fault-crash", "CrashAfterRound"), 0, "crash this PS after serving N rounds (ps role; local role crashes the last PS)")
	fs.IntVar(&o.client.MinModels, o.spec.Flag("min-models", "MinModels"), 0, "tolerant client: accept a round with >= this many global models (0 = strict, require all P)")
	fs.StringVar(&o.ps.CheckpointPath, o.spec.Flag("checkpoint", "CheckpointPath"), "", "PS checkpoint file persisting the round horizon and spill manifest each window; resumes after restart (requires -async)")
	fs.DurationVar(&o.client.LatencyScale, o.spec.Flag("latency-scale", "LatencyScale"), 0, "client virtual upload-latency scale; an upload arrives floor(U[0,scale)/window) rounds after its origin (0 = default; requires -async)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus metrics at /metrics and pprof at /debug/pprof/ on this address (e.g. 127.0.0.1:9090)")
	fs.BoolVar(&o.logRounds, "log", false, "structured per-round logging (log/slog) to stderr")
	return o
}

// resolve turns the parsed flags into the validated federation spec —
// fedms.Resolve, by way of the binding that names the offending flag —
// after folding in this command's own spec-shaping flags, and has node
// check the deployment flags against it (checkDeployment), reported
// under the flag too. It opens no socket; run() calls it before any,
// the metrics listener included, so a bad flag never leaves a
// half-started node behind.
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
	if err := o.checkDeployment(cfg); err != nil {
		return cfg, o.spec.UnderFlag(err)
	}
	for _, rate := range []float64{o.faults.Drop, o.faults.Corrupt, o.faults.Duplicate, o.faults.Delay} {
		if !(rate >= 0 && rate <= 1) { // NaN fails too
			return cfg, fmt.Errorf("fault rates must be in [0, 1]")
		}
	}
	return cfg, nil
}

// checkDeployment derives one server's and one client's configuration
// from cfg, applies the deployment flags as the roles do, and returns
// node's own rejection of either: a deployment flag NewPS or RunClient
// would refuse — and, in the local role, a scheduled crash the client's
// quorum cannot survive, as NewLocal would refuse it. Asking before any
// listener binds matters most for the client: one failing after the PSs
// are up would leave them blocked in Accept.
func (o *options) checkDeployment(cfg core.Config) error {
	pc, err := node.PSConfigFor(cfg, 0)
	if err != nil {
		return err
	}
	o.deployPS(&pc, nil)
	if _, err := pc.Validate(); err != nil {
		return err
	}
	cc, err := node.ClientConfigFor(cfg, 0, nil)
	if err != nil {
		return err
	}
	cc.Servers = make([]string, cfg.Servers) // only their count is checked
	o.deployClient(&cc, nil)
	if _, err := cc.Validate(); err != nil {
		return err
	}
	if o.role != "local" {
		return nil // a crashing PS's clients run in other processes
	}
	return node.CheckCrashQuorum(pc, cc)
}

// faultInjector builds the process-wide fault injector, or nil when no
// fault rate is configured. All nodes of a chaos run must share the
// same fault seed to agree on the schedule they are rehearsing.
func (o *options) faultInjector() *transport.FaultInjector {
	cfg := o.faults
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
	return o.client.MinModels > 0 || o.ps.CrashAfterRound > 0 || o.faults.Enabled()
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
// configuration (node.PSConfigFor). Where it listens is the role's to
// add; the local role also narrows the crash and checkpoint hooks.
func (o *options) deployPS(ps *node.PSConfig, fi *transport.FaultInjector) {
	d := o.ps
	ps.Key, ps.Timeout, ps.Tolerant, ps.Faults = []byte(o.key), o.psTimeout(), o.tolerant(), fi
	ps.HelloDeadline, ps.AcceptRate, ps.AcceptBurst, ps.RequireToken = d.HelloDeadline, d.AcceptRate, d.AcceptBurst, d.RequireToken
	ps.CheckpointPath, ps.CrashAfterRound = d.CheckpointPath, d.CrashAfterRound
}

// deployClient applies them to a client's (node.ClientConfigFor), in
// both the client and the local role.
func (o *options) deployClient(cl *node.ClientConfig, fi *transport.FaultInjector) {
	d := o.client
	cl.Key, cl.Timeout, cl.Faults, cl.EvalEvery = []byte(o.key), o.timeout, fi, 5
	cl.MinModels, cl.Redial, cl.LatencyScale = d.MinModels, d.MinModels > 0, d.LatencyScale
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
	pc.ListenAddr = o.listen
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
		if pc.ID != last {
			pc.CrashAfterRound = 0
		}
		// Every local PS gets its own checkpoint file: they would
		// otherwise race on the shared path and spill segment.
		if pc.CheckpointPath != "" {
			pc.CheckpointPath = fmt.Sprintf("%s.ps%d", pc.CheckpointPath, pc.ID)
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
	if crash := o.ps.CrashAfterRound; crash > 0 && psStats[last].RoundsServed == crash {
		fmt.Printf("fedms-node: PS crashed after %d rounds (scheduled)\n", crash)
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
