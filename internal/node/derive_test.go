package node

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/nn"
)

// testSpec is the federation every parity launcher in this package
// starts from: the fixture's shape (E=2, lr 0.3) around the caller's
// size, filter and seed.
func testSpec(k, p, rounds int, filter aggregate.Rule, seed uint64) core.Config {
	return core.Config{
		Clients: k, Servers: p, Rounds: rounds, LocalSteps: 2,
		Filter: filter, Schedule: nn.ConstantLR(0.3), Seed: seed, EvalEvery: -1,
	}
}

// launch runs a loopback federation through NewLocal with nothing but
// a 5s timeout added to the derivation. psMut and clMut, when non-nil,
// edit a node's derived config after that (the tiers that probe one
// knob at a time use them).
func launch(t *testing.T, cfg core.Config, learners []core.Learner,
	psMut func(*PSConfig), clMut func(*ClientConfig)) ([][]float64, [][]ClientRoundStats, []PSStats) {
	t.Helper()
	l, err := NewLocal(cfg, learners, func(pc *PSConfig) {
		pc.Timeout = 5 * time.Second
		if psMut != nil {
			psMut(pc)
		}
	}, func(cc *ClientConfig) {
		cc.Timeout = 5 * time.Second
		if clMut != nil {
			clMut(cc)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	clientStats, psStats, err := l.Run()
	if err != nil {
		t.Fatalf("distributed run failed: %v", err)
	}
	return finalParams(learners), clientStats, psStats
}

// finalParams snapshots every learner's parameters.
func finalParams(learners []core.Learner) [][]float64 {
	params := make([][]float64, len(learners))
	for i, l := range learners {
		params[i] = l.Params()
	}
	return params
}

// TestDerivedFederationMatchesEngine is the derivation's contract: one
// core.Config value, handed to core.NewEngine and to a loopback
// federation that knows nothing else, leaves every client on the same
// bits. The Byzantine server and client identities are not pinned, so
// both sides must draw the same ones from the seed.
func TestDerivedFederationMatchesEngine(t *testing.T) {
	const k, p, rounds, seed = 6, 5, 4, 91
	up, err := compress.ParseSpec("ef+topk:0.25")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*core.Config){
		"dense sparse upload": func(*core.Config) {},
		"ef+topk full upload, sharded trim server rule, partial participation": func(c *core.Config) {
			c.UploadCodec, c.Upload, c.Shards = up, core.FullUpload, 3
			c.ServerFilter, c.Participation = aggregate.TrimmedMean{Beta: 0.2}, 0.67
			c.NumByzantineClients, c.ClientAttack = 1, attack.UploadSignFlip{}
		},
	}
	for name, shape := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := testSpec(k, p, rounds, aggregate.TrimmedMean{Beta: 0.2}, seed)
			cfg.NumByzantine, cfg.Attack = 1, attack.Noise{Sigma: 1}
			shape(&cfg)

			dist, _, _ := launch(t, cfg, makeLearners(t, k, seed), nil, nil)
			eng := runEngineCfg(t, makeLearners(t, k, seed), cfg)
			assertSameParams(t, dist, eng, name)
		})
	}
}

// TestDerivationRejectsRoundRobin: the wire protocol has no rotation
// schedule, so the engine-only ablation must not silently run sparse.
func TestDerivationRejectsRoundRobin(t *testing.T) {
	cfg := testSpec(2, 2, 1, aggregate.Mean{}, 1)
	cfg.Upload = core.RoundRobinUpload
	cfg, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PSConfigFor(cfg, 0); err == nil {
		t.Fatal("PSConfigFor accepted round-robin upload")
	}
	if _, err := ClientConfigFor(cfg, 0, nil); err == nil {
		t.Fatal("ClientConfigFor accepted round-robin upload")
	}
}

// TestNewLocalScheduledCrashIsNotAnError: a server whose config
// schedules a crash returns ErrCrashed by design; the run still
// succeeds and reports the crashed server's rounds.
func TestNewLocalScheduledCrashIsNotAnError(t *testing.T) {
	cfg := testSpec(3, 3, 3, aggregate.Mean{}, 61)
	l, err := NewLocal(cfg, makeLearners(t, 3, 61), func(pc *PSConfig) {
		pc.Timeout, pc.Tolerant = 5*time.Second, true
		if pc.ID == 2 {
			pc.CrashAfterRound = 1
		}
	}, func(cc *ClientConfig) { cc.Timeout, cc.MinModels = 2*time.Second, 2 })
	if err != nil {
		t.Fatal(err)
	}
	clientStats, psStats, err := l.Run()
	if err != nil {
		t.Fatalf("scheduled crash reported as a failure: %v", err)
	}
	if psStats[2].RoundsServed != 1 || len(clientStats[0]) != 3 {
		t.Fatalf("crashed PS served %d rounds, client 0 finished %d", psStats[2].RoundsServed, len(clientStats[0]))
	}
}

// TestNewLocalNamesFailedNodes: an unscheduled server failure and the
// client failures it causes come back joined, each naming its node.
func TestNewLocalNamesFailedNodes(t *testing.T) {
	l, err := NewLocal(testSpec(2, 2, 2, aggregate.Mean{}, 62), makeLearners(t, 2, 62),
		func(pc *PSConfig) { pc.Timeout = 2 * time.Second },
		func(cc *ClientConfig) { cc.Timeout, cc.DialAttempts = 2*time.Second, 1 })
	if err != nil {
		t.Fatal(err)
	}
	l.servers[1].Crash()
	_, _, err = l.Run()
	if !errors.Is(err, ErrCrashed) || !strings.Contains(err.Error(), "ps1: "+ErrCrashed.Error()) {
		t.Fatalf("unscheduled crash not reported as ps1's: %v", err)
	}
	for _, node := range []string{"c0: ", "c1: "} {
		if !strings.Contains(err.Error(), node) {
			t.Fatalf("client failure not named %q: %v", node, err)
		}
	}
}

// TestNewLocalClosesListenersOnBindFailure: when server i cannot be
// built, the listeners of servers 0..i-1 are closed again.
func TestNewLocalClosesListenersOnBindFailure(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	_ = probe.Close()
	_, err = NewLocal(testSpec(2, 2, 1, aggregate.Mean{}, 63), makeLearners(t, 2, 63), func(pc *PSConfig) {
		if pc.ID == 0 {
			pc.ListenAddr = addr
		} else {
			pc.Shards = -1 // NewPS rejects it
		}
	}, nil)
	if err == nil {
		t.Fatal("NewLocal accepted a server NewPS rejects")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("server 0's listener left bound after the failure: %v", err)
	}
	_ = ln.Close()
}
