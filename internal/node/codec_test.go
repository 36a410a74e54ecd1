package node

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/nn"
	"fedms/internal/transport"
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

// TestPSDownlinkGatedByHelloAdvertisement: a PS encodes the downlink
// only for clients whose hello advertised v2 frames. Every client of
// this package advertises them, so two hand-rolled clients drive both
// branches: the one that did not advertise receives dense v1 global
// models, the one that did receives the codec's payload, and BytesOut
// counts exactly what the two were sent.
func TestPSDownlinkGatedByHelloAdvertisement(t *testing.T) {
	q8 := mustSpec(t, "q8")
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: 2, Rounds: 1,
		Timeout: 5 * time.Second, DownlinkCodec: q8,
	})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- ps.Serve() }()

	// Both clients upload model, so the mean they receive is model.
	model := []float64{1, -2, 3, 0.5, 8, -4}
	got := make([]*transport.Message, 2)
	var wg sync.WaitGroup
	for id, text := range []string{"", transport.HelloCodecV2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := transport.Dial(ps.Addr(), 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			conn.Timeout = 5 * time.Second
			if err := sendHello(conn, id, text, model); err != nil {
				t.Error(err)
				return
			}
			if err := conn.Send(&transport.Message{Type: transport.TypeUpload, Sender: uint32(id), Flag: 1, Vec: model}); err != nil {
				t.Error(err)
				return
			}
			m, err := conn.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			got[id] = &transport.Message{Enc: m.Enc, Payload: bytes.Clone(m.Payload), Vec: slices.Clone(m.Vec)}
		}()
	}
	wg.Wait()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	plain, coded := got[0], got[1]
	if plain.Payload != nil || !slices.Equal(plain.Vec, model) {
		t.Fatalf("client without enc:v2 got enc %v payload %d bytes vec %v, want the dense v1 model %v",
			plain.Enc, len(plain.Payload), plain.Vec, model)
	}
	c, err := q8.NewCodec(0)
	if err != nil {
		t.Fatal(err)
	}
	enc, payload := c.AppendEncode(nil, model)
	if coded.Vec != nil || coded.Enc != enc || !bytes.Equal(coded.Payload, payload) {
		t.Fatalf("client with enc:v2 got enc %v payload %d bytes vec %v, want the %s payload (%d bytes)",
			coded.Enc, len(coded.Payload), coded.Vec, q8, len(payload))
	}
	if st, want := ps.Stats(), 8*len(model)+len(payload); st.BytesOut != want {
		t.Fatalf("BytesOut = %d, want %d (dense %d + q8 %d)", st.BytesOut, want, 8*len(model), len(payload))
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
