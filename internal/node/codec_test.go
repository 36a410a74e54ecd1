package node

import (
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/nn"
)

// runDistributedCodec is runDistributed with the codec layer enabled:
// each client compresses uploads with a codec seeded by
// core.ClientCodecSeed, and each PS optionally compresses its downlink.
// It also returns the stats both sides recorded so tests can check the
// byte accounting against the engine's.
func runDistributedCodec(t *testing.T, learners []core.Learner, p, rounds int,
	filter aggregate.Rule, seed uint64, up, down compress.Spec) ([][]float64, []PSStats, [][]ClientRoundStats) {
	t.Helper()
	cfg := testSpec(len(learners), p, rounds, filter, seed)
	cfg.UploadCodec, cfg.DownlinkCodec = up, down
	params, clientStats, psStats := launch(t, cfg, learners, nil, nil)
	return params, psStats, clientStats
}

// runEngineCodec runs the in-process engine with the same codec specs
// and returns params plus the engine's per-round stats.
func runEngineCodec(t *testing.T, learners []core.Learner, p, rounds int,
	filter aggregate.Rule, seed uint64, up, down compress.Spec) ([][]float64, []core.RoundStats) {
	t.Helper()
	eng, err := core.NewEngine(core.Config{
		Clients:       len(learners),
		Servers:       p,
		Rounds:        rounds,
		LocalSteps:    2,
		Filter:        filter,
		Schedule:      nn.ConstantLR(0.3),
		Seed:          seed,
		EvalEvery:     -1,
		UploadCodec:   up,
		DownlinkCodec: down,
	}, learners)
	if err != nil {
		t.Fatal(err)
	}
	stats := eng.Run()
	params := make([][]float64, len(learners))
	for i, l := range learners {
		params[i] = l.Params()
	}
	return params, stats
}

func mustSpec(t *testing.T, s string) compress.Spec {
	t.Helper()
	sp, err := compress.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestDistributedUploadCodecMatchesEngine: with the uplink codec seeded
// by ClientCodecSeed on both sides, the distributed run must stay
// bit-identical to the engine for every codec family — including the
// stateful ef+ codec, whose residual advances once per round on each
// path, and randk, whose support is drawn from the shared per-client
// stream.
func TestDistributedUploadCodecMatchesEngine(t *testing.T) {
	const k, p, rounds, seed = 4, 3, 3, 61
	for _, spec := range []string{"q8", "topk:0.25", "randk:0.5", "ef+topk:0.25"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			up := mustSpec(t, spec)
			dense := compress.Spec{}
			dist, _, clientStats := runDistributedCodec(t, makeLearners(t, k, seed), p, rounds,
				aggregate.TrimmedMean{Beta: 0.2}, seed, up, dense)
			eng, engStats := runEngineCodec(t, makeLearners(t, k, seed), p, rounds,
				aggregate.TrimmedMean{Beta: 0.2}, seed, up, dense)
			assertSameParams(t, dist, eng, "upload codec "+spec)

			// Both sides must agree on what the compressed uplink cost.
			distUp, engUp := 0, 0
			for _, st := range clientStats {
				for _, rs := range st {
					distUp += rs.UploadBytes
				}
			}
			for _, rs := range engStats {
				engUp += rs.UploadBytes
			}
			if distUp != engUp || distUp == 0 {
				t.Fatalf("upload byte accounting diverged: distributed %d, engine %d", distUp, engUp)
			}
		})
	}
}

// TestDistributedDownlinkCodecMatchesEngine: stateless downlink codecs
// (quantization, top-k) reconstruct identically whether applied by a
// persistent PS-side instance or the engine's per-round EncodeDecode,
// so the trajectories must still match bitwise.
func TestDistributedDownlinkCodecMatchesEngine(t *testing.T) {
	const k, p, rounds, seed = 4, 3, 3, 62
	for _, spec := range []string{"q8", "topk:0.5"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			down := mustSpec(t, spec)
			up := mustSpec(t, "q8")
			dist, psStats, clientStats := runDistributedCodec(t, makeLearners(t, k, seed), p, rounds,
				aggregate.TrimmedMean{Beta: 0.2}, seed, up, down)
			eng, engStats := runEngineCodec(t, makeLearners(t, k, seed), p, rounds,
				aggregate.TrimmedMean{Beta: 0.2}, seed, up, down)
			assertSameParams(t, dist, eng, "downlink codec "+spec)

			distDown, engDown, psOut := 0, 0, 0
			for _, st := range clientStats {
				for _, rs := range st {
					distDown += rs.DownloadBytes
				}
			}
			for _, rs := range engStats {
				engDown += rs.DownloadBytes
			}
			for _, st := range psStats {
				psOut += st.BytesOut
			}
			if distDown != engDown || distDown == 0 {
				t.Fatalf("download byte accounting diverged: distributed %d, engine %d", distDown, engDown)
			}
			if psOut != distDown {
				t.Fatalf("PS BytesOut %d != client DownloadBytes %d", psOut, distDown)
			}
		})
	}
}

// TestDenseCodecSpecIsIdentity is the refactor's no-regression contract:
// a run configured with the explicit "dense" spec must stay bit-identical
// to a run with no codec at all, and count the same 8-bytes-per-float
// wire cost the v1 protocol had.
func TestDenseCodecSpecIsIdentity(t *testing.T) {
	const k, p, rounds, seed = 4, 3, 3, 63
	dense := mustSpec(t, "dense")
	withSpec, _, clientStats := runDistributedCodec(t, makeLearners(t, k, seed), p, rounds,
		aggregate.TrimmedMean{Beta: 0.2}, seed, dense, dense)
	plain := runDistributed(t, makeLearners(t, k, seed), p, rounds, nil,
		aggregate.TrimmedMean{Beta: 0.2}, seed)
	assertSameParams(t, withSpec, plain, "dense spec identity")

	dim := makeLearners(t, 1, seed)[0].NumParams()
	for id, st := range clientStats {
		for _, rs := range st {
			if rs.UploadBytes != 8*dim {
				t.Fatalf("client %d round %d: dense UploadBytes = %d, want %d", id, rs.Round, rs.UploadBytes, 8*dim)
			}
			if rs.DownloadBytes != 8*dim*p {
				t.Fatalf("client %d round %d: dense DownloadBytes = %d, want %d", id, rs.Round, rs.DownloadBytes, 8*dim*p)
			}
		}
	}
}

// TestCodecUploadShrinksWireBytes pins the point of the layer: the
// compressed uplink must put at least 5x fewer payload bytes on the
// wire than the dense protocol at the same dimension.
func TestCodecUploadShrinksWireBytes(t *testing.T) {
	const k, p, rounds, seed = 4, 3, 2, 64
	_, _, denseStats := runDistributedCodec(t, makeLearners(t, k, seed), p, rounds,
		aggregate.TrimmedMean{Beta: 0.2}, seed, compress.Spec{}, compress.Spec{})
	_, _, efStats := runDistributedCodec(t, makeLearners(t, k, seed), p, rounds,
		aggregate.TrimmedMean{Beta: 0.2}, seed, mustSpec(t, "ef+topk:0.1"), compress.Spec{})
	denseUp, efUp := 0, 0
	for _, st := range denseStats {
		for _, rs := range st {
			denseUp += rs.UploadBytes
		}
	}
	for _, st := range efStats {
		for _, rs := range st {
			efUp += rs.UploadBytes
		}
	}
	if efUp == 0 || denseUp < 5*efUp {
		t.Fatalf("ef+topk:0.1 upload bytes %d vs dense %d: want >= 5x reduction", efUp, denseUp)
	}
}
