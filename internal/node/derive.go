package node

import (
	"errors"
	"fmt"
	"sync"

	"fedms/internal/aggregate"
	"fedms/internal/core"
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

// PSConfigFor returns server id's configuration under cfg; id must be
// one of cfg's P servers.
func PSConfigFor(cfg core.Config, id int) (PSConfig, error) {
	if id < 0 || id >= cfg.Servers {
		return PSConfig{}, fmt.Errorf("node: server id %d is outside [0, P=%d)", id, cfg.Servers)
	}
	ps := PSConfig{
		ID:            id,
		Clients:       cfg.Clients,
		Rounds:        cfg.Rounds,
		ServerRule:    cfg.ServerFilter,
		LossOracle:    cfg.LossOracle,
		DownlinkCodec: cfg.DownlinkCodec,
		Async:         cfg.Async,
		Window:        cfg.Window,
		Staleness:     cfg.Staleness,
		SpillDir:      cfg.SpillDir,
		SpillMem:      cfg.SpillMem,
		Seed:          cfg.Seed,
		Logger:        cfg.Logger,
		Obs:           cfg.Obs,
		TraceSink:     cfg.TraceSink,
	}
	if cfg.IsByzantine(id) {
		ps.Attack = cfg.Attack
	}
	return ps, nil
}

// ClientConfigFor returns client id's configuration under cfg, training
// learner; id must be one of cfg's K clients. Servers is the caller's
// to fill.
func ClientConfigFor(cfg core.Config, id int, learner core.Learner) (ClientConfig, error) {
	if id < 0 || id >= cfg.Clients {
		return ClientConfig{}, fmt.Errorf("node: client id %d is outside [0, K=%d)", id, cfg.Clients)
	}
	cl := ClientConfig{
		ID:            id,
		Learner:       learner,
		Rounds:        cfg.Rounds,
		LocalSteps:    cfg.LocalSteps,
		Clients:       cfg.Clients,
		Participation: cfg.Participation,
		FullUpload:    cfg.Upload == core.FullUpload,
		Filter:        cfg.Filter,
		LossOracle:    cfg.LossOracle,
		Schedule:      cfg.Schedule,
		Async:         cfg.Async,
		Window:        cfg.Window,
		Staleness:     cfg.Staleness,
		Seed:          cfg.Seed,
		Logger:        cfg.Logger,
		Obs:           cfg.Obs,
		TraceSink:     cfg.TraceSink,
	}
	if cfg.IsByzantineClient(id) {
		cl.UploadAttack = cfg.ClientAttack
	}
	if cfg.UploadCodec.IsDense() {
		return cl, nil
	}
	var err error
	cl.Codec, err = cfg.UploadCodec.NewCodec(core.ClientCodecSeed(cfg.Seed, id))
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
// to the caller's deployment callback (ps, client; either may be nil),
// binds every server on 127.0.0.1:0 and validates every client's
// configuration, and its quorum against every scheduled server crash
// (CheckCrashQuorum) — before any goroutine starts. learners[k] is client
// k's. A client callback sees Servers already filled with Addrs. If a
// server fails to bind or a client's configuration is rejected, the
// listeners already bound are closed.
func NewLocal(cfg core.Config, learners []core.Learner, ps func(*PSConfig), client func(*ClientConfig)) (*Local, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if len(learners) != cfg.Clients {
		return nil, fmt.Errorf("node: %d learners for K=%d clients", len(learners), cfg.Clients)
	}
	// Every node gets the one oracle, and the nodes run concurrently.
	cfg.LossOracle = aggregate.Serialize(cfg.LossOracle)
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
		// A client rejected only once Run starts would leave every
		// server blocked in Accept.
		if _, err := cc.Validate(); err != nil {
			return nil, l.close(err)
		}
		for _, s := range l.servers {
			if err := CheckCrashQuorum(s.cfg, cc); err != nil {
				return nil, l.close(err)
			}
		}
		l.clients = append(l.clients, cc)
	}
	return l, nil
}

// CheckCrashQuorum returns the rejection NewLocal gives client cc when
// server ps schedules a crash (CrashAfterRound) before the run's last
// round: from then on at most P−1 models arrive a round, so the client
// must degrade to a quorum (MinModels > 0) the survivors can meet. A
// strict client (MinModels 0) needs all P and would abort at the crash.
// The rejection is a *core.FieldError on CrashAfterRound.
func CheckCrashQuorum(ps PSConfig, cc ClientConfig) error {
	if ps.CrashAfterRound <= 0 || ps.CrashAfterRound >= cc.Rounds {
		return nil
	}
	p := len(cc.Servers)
	if cc.MinModels > 0 && cc.MinModels <= p-1 {
		return nil
	}
	who := fmt.Sprintf("client %d", cc.ID)
	if cc.MinModels == 0 {
		return fieldErr(who, "CrashAfterRound", "a server crashes after round %d of %d, but MinModels 0 waits for all P=%d models every round (MinModels lets a client degrade to the %d left)", ps.CrashAfterRound, cc.Rounds, p, p-1)
	}
	return fieldErr(who, "CrashAfterRound", "a server crashes after round %d of %d, leaving %d of P=%d servers, fewer than MinModels %d", ps.CrashAfterRound, cc.Rounds, p-1, p, cc.MinModels)
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
