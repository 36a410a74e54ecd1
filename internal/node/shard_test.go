package node

import (
	"fmt"
	"slices"
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/nn"
	"fedms/internal/obs"
)

// runDistributedOpts is runDistributed with config hooks: psMut and
// clMut edit each node's config after the shared defaults are set, so
// the sharded, participation and degenerate-window tiers reuse one
// runner. It also returns every server's final stats.
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

// TestDistributedShardedMatchesEngine is the distributed leg of the
// sharded differential contract: PSs streaming codec uploads through
// the two-tier shard tree must leave every client bit-identical to the
// unsharded in-process engine AND to the engine running its own sharded
// path — three routes, one trajectory. Full upload with a robust server
// rule gives every PS the full K-row barrier to shard.
func TestDistributedShardedMatchesEngine(t *testing.T) {
	const k, p, rounds, seed = 6, 3, 4, 71
	rule := aggregate.TrimmedMean{Beta: 0.2}
	up, err := compress.ParseSpec("topk:0.25")
	if err != nil {
		t.Fatal(err)
	}

	dist, _, _ := runDistributedOpts(t, makeLearners(t, k, seed), p, rounds, rule, seed,
		func(c *PSConfig) {
			c.ServerRule = aggregate.TrimmedMean{Beta: 0.2}
			c.Shards = 3
		},
		func(c *ClientConfig) {
			c.FullUpload = true
			codec, err := up.NewCodec(core.ClientCodecSeed(seed, c.ID))
			if err != nil {
				t.Error(err)
				return
			}
			c.Codec = codec
		})

	base := core.Config{
		Clients: k, Servers: p, Rounds: rounds, LocalSteps: 2,
		Upload: core.FullUpload, ServerFilter: aggregate.TrimmedMean{Beta: 0.2},
		Filter: rule, Schedule: nn.ConstantLR(0.3), Seed: seed,
		UploadCodec: up,
	}
	engUnsharded := runEngineCfg(t, makeLearners(t, k, seed), base)
	assertSameParams(t, dist, engUnsharded, "sharded distributed vs unsharded engine")

	base.Shards = 4
	engSharded := runEngineCfg(t, makeLearners(t, k, seed), base)
	assertSameParams(t, engSharded, engUnsharded, "sharded engine vs unsharded engine")
}

// TestDistributedParticipationMatchesEngine pins the partial-
// participation parity contract: distributed clients sampling their
// rounds from core.ActiveClients train bit-identically to the engine
// under the same Participation, and the per-round active sets the
// clients report are exactly the engine's sampled index sets.
func TestDistributedParticipationMatchesEngine(t *testing.T) {
	const k, p, rounds, seed = 6, 3, 5, 73
	const participation = 0.5
	rule := aggregate.TrimmedMean{Beta: 0.2}

	dist, clientStats, _ := runDistributedOpts(t, makeLearners(t, k, seed), p, rounds, rule, seed,
		nil,
		func(c *ClientConfig) {
			c.Clients = k
			c.Participation = participation
		})

	// The active flags each client recorded must reproduce the pure
	// sampled index sets, round for round.
	for round := 0; round < rounds; round++ {
		want := make(map[int]bool, k)
		for _, id := range core.ActiveClients(seed, round, k, participation) {
			want[id] = true
		}
		for id := 0; id < k; id++ {
			if got := clientStats[id][round].Active; got != want[id] {
				t.Fatalf("round %d client %d: Active=%v, engine samples %v", round, id, got, want[id])
			}
			if !want[id] && clientStats[id][round].UploadBytes != 0 {
				t.Fatalf("round %d client %d: inactive client put %d upload bytes on the wire",
					round, id, clientStats[id][round].UploadBytes)
			}
		}
	}

	eng := runEngineCfg(t, makeLearners(t, k, seed), core.Config{
		Clients: k, Servers: p, Rounds: rounds, LocalSteps: 2,
		Participation: participation,
		Filter:        rule, Schedule: nn.ConstantLR(0.3), Seed: seed,
	})
	assertSameParams(t, dist, eng, "participation 0.5")
}

// TestClientRejectsBadParticipation pins the client-side fail-fast
// validation: an out-of-range fraction or a missing population size is
// rejected before any socket is dialed.
func TestClientRejectsBadParticipation(t *testing.T) {
	learners := makeLearners(t, 1, 79)
	base := ClientConfig{
		ID: 0, Learner: learners[0], Servers: []string{"127.0.0.1:1"},
		Rounds: 1, Filter: aggregate.Mean{}, Schedule: nn.ConstantLR(0.1),
	}

	bad := base
	bad.Participation = 1.5
	if _, err := RunClient(bad); err == nil {
		t.Fatal("expected participation range error")
	}
	bad = base
	bad.Participation = 0.5 // Clients unset: population unknown
	if _, err := RunClient(bad); err == nil {
		t.Fatal("expected missing-Clients error")
	}
}

// TestShardPeakGaugesTrackTheMaximum: the shard peak gauges are
// high-water marks. Under sparse upload each server's row count — and
// with it the shard footprint — varies by round, so in a run whose last
// round is not its largest the PS gauge must still equal
// PSStats.ShardPeakBytes, and the engine's gauge the maximum over every
// server and round.
func TestShardPeakGaugesTrackTheMaximum(t *testing.T) {
	const k, p, rounds, seed = 8, 2, 6, 72
	cfg := testSpec(k, p, rounds, aggregate.Mean{}, seed)
	cfg.Shards = 2
	dist := cfg
	dist.Obs, dist.TraceSink = obs.NewRegistry(), obs.NewTrace(0)
	_, _, psStats := launch(t, dist, makeLearners(t, k, seed), nil, nil)

	// uploads[ps][round] from the round trace: the footprint's driver.
	uploads := make([][]float64, p)
	for i := range uploads {
		uploads[i] = make([]float64, rounds)
	}
	for _, ev := range dist.TraceSink.Events() {
		if ev.Name == "ps_round" {
			var ps int
			fmt.Sscanf(ev.Node, "ps%d", &ps)
			uploads[ps][ev.Round] = ev.Fields["uploads"]
		}
	}
	var peak int64
	varied := false
	for i, st := range psStats {
		gauge := dist.Obs.Gauge(fmt.Sprintf(`fedms_ps_shard_peak_bytes{ps="%d"}`, i)).Value()
		if st.ShardPeakBytes == 0 || gauge != st.ShardPeakBytes {
			t.Fatalf("PS %d: shard peak gauge %d, PSStats.ShardPeakBytes %d", i, gauge, st.ShardPeakBytes)
		}
		peak = max(peak, st.ShardPeakBytes)
		varied = varied || uploads[i][rounds-1] < slices.Max(uploads[i])
	}
	if !varied {
		t.Fatalf("every server's last round was its largest (uploads %v); the test cannot tell peak from last", uploads)
	}

	eng := cfg
	eng.Obs = obs.NewRegistry()
	runEngineCfg(t, makeLearners(t, k, seed), eng)
	if gauge := eng.Obs.Gauge("fedms_engine_shard_peak_bytes").Value(); gauge != peak {
		t.Fatalf("engine shard peak gauge %d, want the run's maximum %d", gauge, peak)
	}
}
