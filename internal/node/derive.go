package node

import (
	"errors"
	"fmt"
	"sync"

	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/randx"
)

// PSConfigFor and ClientConfigFor derive one node's configuration from
// the validated federation spec (core.Config.Validate, or fedms.Resolve
// above it) — the same value the in-process engine runs from, which is
// what makes a federation launched through them bit-identical to the
// engine: Byzantine identities, rules, oracle, sampling and codec seeds
// are all read from cfg, never restated. What is left for the caller is
// deployment only: addresses, Key, Timeout, tolerance (Tolerant,
// MinModels, Redial), ingest limits, Faults, crash and checkpoint
// hooks, EvalEvery and LatencyScale.

// PSConfigFor returns server id's configuration under cfg.
func PSConfigFor(cfg core.Config, id int) (PSConfig, error) {
	if err := distributable(cfg); err != nil {
		return PSConfig{}, err
	}
	ps := PSConfig{
		ID:         id,
		Clients:    cfg.Clients,
		Rounds:     cfg.Rounds,
		ServerRule: cfg.ServerFilter,
		LossOracle: cfg.LossOracle,
		Shards:     cfg.Shards,
		Async:      cfg.Async,
		Window:     cfg.Window,
		Staleness:  cfg.Staleness,
		SpillDir:   cfg.SpillDir,
		SpillMem:   cfg.SpillMem,
		Seed:       cfg.Seed,
		Logger:     cfg.Logger,
		Obs:        cfg.Obs,
		TraceSink:  cfg.TraceSink,
	}
	if cfg.IsByzantine(id) {
		ps.Attack = cfg.Attack
	}
	var err error
	ps.DownlinkCodec, err = newCodec(cfg.DownlinkCodec, randx.Derive(cfg.Seed, fmt.Sprintf("downlink/ps%d", id)))
	return ps, err
}

// ClientConfigFor returns client id's configuration under cfg, training
// learner. Servers is the caller's to fill.
func ClientConfigFor(cfg core.Config, id int, learner core.Learner) (ClientConfig, error) {
	if err := distributable(cfg); err != nil {
		return ClientConfig{}, err
	}
	cl := ClientConfig{
		ID:                    id,
		Learner:               learner,
		Rounds:                cfg.Rounds,
		LocalSteps:            cfg.LocalSteps,
		Clients:               cfg.Clients,
		Participation:         cfg.Participation,
		FullUpload:            cfg.Upload == core.FullUpload,
		Filter:                cfg.Filter,
		LossOracle:            cfg.LossOracle,
		Schedule:              cfg.Schedule,
		AcceptEncodedDownlink: !cfg.DownlinkCodec.IsDense(),
		Async:                 cfg.Async,
		Window:                cfg.Window,
		Staleness:             cfg.Staleness,
		Seed:                  cfg.Seed,
		Logger:                cfg.Logger,
		Obs:                   cfg.Obs,
		TraceSink:             cfg.TraceSink,
	}
	if cfg.IsByzantineClient(id) {
		cl.UploadAttack = cfg.ClientAttack
	}
	var err error
	cl.Codec, err = newCodec(cfg.UploadCodec, core.ClientCodecSeed(cfg.Seed, id))
	return cl, err
}

// Local is a whole federation in one process over loopback TCP: the P
// servers and K clients of one core.Config, every node's configuration
// derived by PSConfigFor / ClientConfigFor.
type Local struct {
	// Addrs lists the bound server addresses in server-id order; they
	// are live from NewLocal on, before Run.
	Addrs   []string
	servers []*PS
	clients []ClientConfig
}

// NewLocal validates cfg, derives every node's configuration, hands each
// to the caller's deployment callback (ps, client; either may be nil)
// and binds every server on 127.0.0.1:0 — before any goroutine starts.
// learners[k] is client k's. A client callback sees Servers already
// filled with Addrs. If a server fails to bind, the listeners already
// bound are closed.
func NewLocal(cfg core.Config, learners []core.Learner, ps func(*PSConfig), client func(*ClientConfig)) (*Local, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if len(learners) != cfg.Clients {
		return nil, fmt.Errorf("node: %d learners for K=%d clients", len(learners), cfg.Clients)
	}
	l := &Local{Addrs: make([]string, cfg.Servers)}
	for i := range l.Addrs {
		pc, err := PSConfigFor(cfg, i)
		if err != nil {
			return nil, l.close(err)
		}
		pc.ListenAddr = "127.0.0.1:0"
		if ps != nil {
			ps(&pc)
		}
		s, err := NewPS(pc)
		if err != nil {
			return nil, l.close(err)
		}
		l.servers = append(l.servers, s)
		l.Addrs[i] = s.Addr()
	}
	for id, learner := range learners {
		cc, err := ClientConfigFor(cfg, id, learner)
		if err != nil {
			return nil, l.close(err)
		}
		cc.Servers = l.Addrs
		if client != nil {
			client(&cc)
		}
		l.clients = append(l.clients, cc)
	}
	return l, nil
}

// close shuts every bound listener and returns err.
func (l *Local) close(err error) error {
	for _, s := range l.servers {
		_ = s.Close()
	}
	return err
}

// Run serves every server and runs every client to completion. It
// returns each client's round stats and each server's final stats, with
// the nodes' errors joined in node order (servers, then clients), each
// naming its node. A server whose config scheduled a crash
// (CrashAfterRound) returning ErrCrashed is not an error.
func (l *Local) Run() ([][]ClientRoundStats, []PSStats, error) {
	errs := make([]error, len(l.servers)+len(l.clients))
	clientStats := make([][]ClientRoundStats, len(l.clients))
	var wg sync.WaitGroup
	for i, s := range l.servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.Serve()
			if err != nil && !(s.cfg.CrashAfterRound > 0 && errors.Is(err, ErrCrashed)) {
				errs[i] = fmt.Errorf("ps%d: %w", i, err)
			}
		}()
	}
	for id, cc := range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if clientStats[id], err = RunClient(cc); err != nil {
				errs[len(l.servers)+id] = fmt.Errorf("c%d: %w", id, err)
			}
		}()
	}
	wg.Wait()
	psStats := make([]PSStats, len(l.servers))
	for i, s := range l.servers {
		psStats[i] = s.Stats()
	}
	return clientStats, psStats, errors.Join(errs...)
}

// distributable rejects the one engine setting the wire protocol has no
// counterpart for.
func distributable(cfg core.Config) error {
	if cfg.Upload == core.RoundRobinUpload {
		return fmt.Errorf("node: the distributed runtime has no %s upload", cfg.Upload)
	}
	return nil
}

// newCodec instantiates spec, or returns nil for dense (the v1 wire).
func newCodec(spec compress.Spec, seed uint64) (compress.Codec, error) {
	if spec.IsDense() {
		return nil, nil
	}
	return spec.NewCodec(seed)
}
