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

// runDistributedOpts is runDistributed with config hooks: psMut and
// clMut edit each node's config after the shared defaults are set, so
// the participation and degenerate-window tiers reuse one runner. It
// also returns every server's final stats.
func runDistributedOpts(t *testing.T, learners []core.Learner, p, rounds int,
	filter aggregate.Rule, seed uint64,
	psMut func(*PSConfig), clMut func(*ClientConfig)) ([][]float64, [][]ClientRoundStats, []PSStats) {
	t.Helper()
	return launch(t, testSpec(len(learners), p, rounds, filter, seed), learners, psMut, clMut)
}

// runEngineCfg runs the in-process engine under a caller-shaped config
// and returns the final client params.
func runEngineCfg(t *testing.T, learners []core.Learner, cfg core.Config) [][]float64 {
	t.Helper()
	cfg.EvalEvery = -1
	eng, err := core.NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return finalParams(learners)
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
		"ef+topk full upload and trim server rule": func(c *core.Config) {
			c.UploadCodec, c.Upload = up, core.FullUpload
			c.ServerFilter, c.Participation = aggregate.TrimmedMean{Beta: 0.2}, 0.67
			c.NumByzantineClients, c.ClientAttack = 1, attack.UploadRandom{}
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

// TestDerivationRejectsOutOfRangeIDs: a node id outside the
// federation would silently take another node's role and seeds.
func TestDerivationRejectsOutOfRangeIDs(t *testing.T) {
	cfg, err := testSpec(2, 3, 1, aggregate.Mean{}, 1).Validate()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, 3} {
		if _, err := PSConfigFor(cfg, id); err == nil || !strings.Contains(err.Error(), "server id") {
			t.Errorf("PSConfigFor(id %d) = %v, want a server-id error", id, err)
		}
	}
	for _, id := range []int{-1, 2} {
		if _, err := ClientConfigFor(cfg, id, nil); err == nil || !strings.Contains(err.Error(), "client id") {
			t.Errorf("ClientConfigFor(id %d) = %v, want a client-id error", id, err)
		}
	}
	if _, err := PSConfigFor(cfg, 2); err != nil {
		t.Errorf("PSConfigFor(last server): %v", err)
	}
	if _, err := ClientConfigFor(cfg, 1, nil); err != nil {
		t.Errorf("ClientConfigFor(last client): %v", err)
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

// TestNewLocalRejectsCrashWithoutQuorum: a crash before the last round
// leaves P−1 servers, so NewLocal refuses clients that are strict or
// whose quorum exceeds P−1, on CrashAfterRound; a crash at or after the
// last round, or a quorum of P−1, is accepted.
func TestNewLocalRejectsCrashWithoutQuorum(t *testing.T) {
	cases := []struct {
		crash, minModels int
		ok               bool
	}{
		{1, 0, false}, {1, 3, false}, {1, 2, true}, {3, 0, true},
	}
	for _, tc := range cases {
		l, err := NewLocal(testSpec(2, 3, 3, aggregate.Mean{}, 64), makeLearners(t, 2, 64), func(pc *PSConfig) {
			if pc.ID == 2 {
				pc.CrashAfterRound = tc.crash
			}
		}, func(cc *ClientConfig) { cc.MinModels = tc.minModels })
		if tc.ok {
			if err != nil {
				t.Fatalf("crash %d, MinModels %d rejected: %v", tc.crash, tc.minModels, err)
			}
			_ = l.close(nil)
			continue
		}
		var fe *core.FieldError
		if !errors.As(err, &fe) || fe.Field != "CrashAfterRound" {
			t.Fatalf("crash %d, MinModels %d: got %v, want a CrashAfterRound rejection", tc.crash, tc.minModels, err)
		}
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
			pc.CrashAfterRound = -1 // NewPS rejects it
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
