package aggregate_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"fedms"
	"fedms/internal/aggregate"
	"fedms/internal/core"
	"fedms/internal/cpu"
	"fedms/internal/node"
)

// TestModelsIndependentOfTileKernel runs four short federations with
// the AVX2 tile kernel on and off: the engine at the engine_paper
// benchmark's shape (K = 50, P = 10, B = 2, E = 3, the 32→128→64→10
// MLP), whose P = 10, m = 2 filter is the widest the kernel takes; a
// loopback federation of 8 clients and P = 5 servers, whose clients
// filter the v1 dense frames they receive in place; the same
// federation at dist_wide_topk's shape (ef+topk:0.1 uploads to every
// server, a trim:0.2 server rule), whose servers reduce their n = 8
// sparse uploads through the all-sparse gather's tile arm with the
// kernel on and column by column without it; and that federation at
// dist_wide_async's shape (Async, Staleness 2, a virtual latency scale
// four windows wide), whose servers admit uploads up to two rounds
// stale, down-weighted, so their member sets reduce through the
// weighted tile. The async leg fails unless some upload was admitted
// stale. The hash of all final models must not depend on the kernel.
func TestModelsIndependentOfTileKernel(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 on this CPU: the pure-Go tile is the only one")
	}
	engine := func(t *testing.T) []core.Learner {
		eng, err := fedms.BuildEngine(fedms.Config{
			Clients: 50, Servers: 10, NumByzantine: 2, Attack: fedms.NoiseAttack{},
			Rounds: 3, LocalSteps: 3, FilterRule: "trim:0.2",
			Dataset: fedms.DatasetSpec{Kind: fedms.DatasetBlobs, Samples: 10_000, Alpha: 1},
			Model:   fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{128, 64}},
			Seed:    1, EvalEvery: -1, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			eng.RunRound()
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		return eng.Learners()
	}
	loopbackSpec := fedms.Config{
		Clients: 8, Servers: 5, ByzantineIDs: []int{2}, Attack: fedms.BackwardAttack{},
		Rounds: 3, LocalSteps: 3, FilterRule: "trim:0.2", LearningRate: 0.2,
		Dataset: fedms.DatasetSpec{Samples: 3000, Alpha: 10, Noise: 2.0},
		Seed:    7, EvalEvery: -1,
	}
	topkSpec := loopbackSpec
	topkSpec.UploadCodec, topkSpec.Upload, topkSpec.ServerRule = "ef+topk:0.1", fedms.FullUpload, "trim:0.2"
	asyncSpec := topkSpec
	asyncSpec.Async, asyncSpec.Window, asyncSpec.Staleness = true, 2*time.Second, 2
	loopback := func(spec fedms.Config) func(*testing.T) []core.Learner {
		return func(t *testing.T) []core.Learner {
			learners, stats := runLoopback(t, spec, 4*spec.Window)
			stale := 0
			for _, st := range stats {
				stale += st.UploadsStale
			}
			if spec.Async && stale == 0 {
				t.Fatal("no upload was admitted stale: the weighted kernels never ran")
			}
			return learners
		}
	}
	for _, fed := range []struct {
		name string
		run  func(*testing.T) []core.Learner
	}{
		{"engine_P=10", engine}, {"loopback_P=5", loopback(loopbackSpec)},
		{"loopback_topk_P=5", loopback(topkSpec)}, {"loopback_async_P=5", loopback(asyncSpec)},
	} {
		t.Run(fed.name, func(t *testing.T) {
			hash := func(on bool) string {
				defer aggregate.SetTileAVX2(on)()
				return modelsHash(fed.run(t))
			}
			if on, off := hash(true), hash(false); on != off {
				t.Fatalf("final models hash %s with the AVX2 tile kernel, %s without", on, off)
			}
		})
	}
}

// runLoopback runs spec as a loopback federation and returns its
// learners and its servers' stats. An async spec's clients draw their
// virtual upload latencies on latencyScale.
func runLoopback(t *testing.T, spec fedms.Config, latencyScale time.Duration) ([]core.Learner, []node.PSStats) {
	cfg, err := fedms.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	learners, err := fedms.BuildLearners(spec)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := node.NewLocal(cfg, learners,
		func(pc *node.PSConfig) { pc.Timeout = 10 * time.Second },
		func(cc *node.ClientConfig) {
			cc.Timeout = 10 * time.Second
			if spec.Async {
				cc.LatencyScale = latencyScale
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := fed.Run()
	if err != nil {
		t.Fatal(err)
	}
	return learners, stats
}

// modelsHash is the SHA-256 of every learner's parameters in order.
func modelsHash(learners []core.Learner) string {
	h := sha256.New()
	var buf [8]byte
	for _, l := range learners {
		for _, v := range l.Params() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
