package node

import (
	"sync"
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

// launch runs a loopback federation built only through the derivation:
// cfg is validated, every node's configuration comes from PSConfigFor /
// ClientConfigFor, and the launcher adds nothing but addresses and a
// timeout. psMut and clMut, when non-nil, edit a node's derived config
// before it starts (the tiers that probe one knob at a time use them).
func launch(t *testing.T, cfg core.Config, learners []core.Learner,
	psMut func(*PSConfig), clMut func(*ClientConfig)) ([][]float64, [][]ClientRoundStats, []PSStats) {
	t.Helper()
	cfg, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*PS, cfg.Servers)
	addrs := make([]string, cfg.Servers)
	for i := range servers {
		pc, err := PSConfigFor(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		pc.ListenAddr, pc.Timeout = "127.0.0.1:0", 5*time.Second
		if psMut != nil {
			psMut(&pc)
		}
		if servers[i], err = NewPS(pc); err != nil {
			t.Fatal(err)
		}
		addrs[i] = servers[i].Addr()
	}

	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Servers+cfg.Clients)
	for _, ps := range servers {
		wg.Add(1)
		go func(ps *PS) {
			defer wg.Done()
			if err := ps.Serve(); err != nil {
				errCh <- err
			}
		}(ps)
	}
	clientStats := make([][]ClientRoundStats, cfg.Clients)
	for id, l := range learners {
		wg.Add(1)
		go func(id int, l core.Learner) {
			defer wg.Done()
			cc, err := ClientConfigFor(cfg, id, l)
			if err == nil {
				cc.Servers, cc.Timeout = addrs, 5*time.Second
				if clMut != nil {
					clMut(&cc)
				}
				clientStats[id], err = RunClient(cc)
			}
			if err != nil {
				errCh <- err
			}
		}(id, l)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("distributed run failed: %v", err)
	}

	params := make([][]float64, len(learners))
	for i, l := range learners {
		params[i] = l.Params()
	}
	psStats := make([]PSStats, len(servers))
	for i, ps := range servers {
		psStats[i] = ps.Stats()
	}
	return params, clientStats, psStats
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
