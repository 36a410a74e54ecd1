package node

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/nn"
	"fedms/internal/obs"
	"fedms/internal/transport"
)

// pipePS builds a PS whose round loop the test drives directly over
// in-memory pipes: NewPS does the config → scheduler/spill wiring, the
// returned connections stand in for what Serve's accept phase would
// have admitted, and lastAgg plays the hello seed. srv[i] is the
// server's end of client i's connection, cli[i] the client's.
func pipePS(t *testing.T, cfg PSConfig, lastAgg []float64) (p *PS, srv, cli []*transport.Conn) {
	t.Helper()
	cfg.ListenAddr = "127.0.0.1:0"
	p, err := NewPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = p.Close()
		if p.spill != nil {
			_ = p.spill.Close()
		}
	})
	p.lastAgg = lastAgg
	p.v2ok = make([]bool, cfg.Clients)
	p.parked = make([]*transport.Message, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		s, c := net.Pipe()
		sc, cc := transport.NewConn(s), transport.NewConn(c)
		sc.Timeout, cc.Timeout = p.cfg.Timeout, 30*time.Second
		srv, cli = append(srv, sc), append(cli, cc)
	}
	return p, srv, cli
}

// TestPSLateDeathKeepsAdmittedFrames is the chaos case behind the
// reader's "everything fully received before a failure is reported"
// contract: a client delivers one CRC-valid stale upload, then its link
// truncates the round marker and the connection dies. The tolerant
// async PS must still admit the stale model (down-weighted), tally its
// bytes — the client counted them as sent — and only then lose the
// connection.
func TestPSLateDeathKeepsAdmittedFrames(t *testing.T) {
	const dim = 4
	stale := []float64{3, 3, 3, 3}
	fresh := []float64{6, 0, 6, 0}
	reg := obs.NewRegistry()
	p, srv, cli := pipePS(t, PSConfig{
		ID: 0, Clients: 2, Rounds: 3, StartRound: 1,
		Tolerant: true, Timeout: 5 * time.Second,
		Async: true, Window: 5 * time.Second, Staleness: 2,
		Obs: reg,
	}, make([]float64, dim))

	got := make(chan []float64, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client 0: one stale upload, then the link kills the marker
		defer wg.Done()
		_ = cli[0].Send(&transport.Message{
			Type: transport.TypeUpload, Round: 0, Sender: 0, Flag: 1, Stale: 1,
			Enc: compress.EncDense, Payload: compress.DenseWire(stale),
		})
		fi := transport.NewFaultInjector(transport.FaultConfig{Seed: 9, Truncate: 1})
		cli[0].SetFaults(fi.Link("c0->ps0"))
		_ = cli[0].Send(&transport.Message{Type: transport.TypeUpload, Round: 1, Sender: 0, Flag: 1, Vec: fresh})
		_ = cli[0].Close()
	}()
	go func() { // client 1: a clean round
		defer wg.Done()
		if err := cli[1].Send(&transport.Message{Type: transport.TypeUpload, Round: 1, Sender: 1, Flag: 1, Vec: fresh}); err != nil {
			got <- nil
			return
		}
		m, err := cli[1].Recv()
		if err != nil {
			got <- nil
			return
		}
		got <- m.Vec
	}()

	if err := p.serveRound(1, srv); err != nil {
		t.Fatalf("serveRound: %v", err)
	}
	wg.Wait()

	st := p.Stats()
	if st.UploadsReceived != 2 || st.UploadsStale != 1 {
		t.Fatalf("admitted %d uploads (%d stale), want 2 (1 stale): the dead connection's stale frame was discarded",
			st.UploadsReceived, st.UploadsStale)
	}
	if st.BytesIn != 2*dim*8 || st.FloatsIn != 2*dim {
		t.Fatalf("BytesIn/FloatsIn = %d/%d, want %d/%d: bytes the client counted as sent went untallied",
			st.BytesIn, st.FloatsIn, 2*dim*8, 2*dim)
	}
	if n := reg.Counter(`fedms_ps_bytes_in_total{ps="0"}`).Value(); n != 2*dim*8 {
		t.Fatalf("fedms_ps_bytes_in_total = %d, want %d", n, 2*dim*8)
	}
	if st.ClientsLost != 1 || st.UploadsMissed != 1 || srv[0] != nil {
		t.Fatalf("dead connection not retired: lost=%d missed=%d conn=%v", st.ClientsLost, st.UploadsMissed, srv[0])
	}
	// Mean over {stale at weight 1/2, fresh at weight 1}.
	model := <-got
	if len(model) != dim {
		t.Fatalf("client 1 got no model")
	}
	for j := range model {
		if want := (0.5*stale[j] + fresh[j]) / 1.5; model[j] != want {
			t.Fatalf("aggregate[%d] = %v, want %v (stale upload missing from the member set)", j, model[j], want)
		}
	}
}

// TestPSWrongDimensionUpload pins the dimension check of the shared
// round loop, sync and async: a checksummed upload whose dimension
// differs from the one the server knows is a sender lying on the wire.
// A tolerant PS skips it like a malformed codec payload — counted in
// frames_skipped, its marker missed, the round built from the honest
// uploads — no matter which client id sent it; a strict PS aborts
// naming that client.
func TestPSWrongDimensionUpload(t *testing.T) {
	const dim = 6
	honest := [][]float64{nil, {1, 2, 3, 4, 5, 6}, {3, 2, 1, 0, -1, -2}}
	for _, async := range []bool{false, true} {
		for _, tolerant := range []bool{true, false} {
			async, tolerant := async, tolerant
			t.Run(fmt.Sprintf("async=%v/tolerant=%v", async, tolerant), func(t *testing.T) {
				reg := obs.NewRegistry()
				cfg := PSConfig{
					ID: 0, Clients: 3, Rounds: 1, Tolerant: tolerant,
					Timeout: 5 * time.Second, Obs: reg,
				}
				if async {
					cfg.Async, cfg.Window, cfg.Staleness = true, 5*time.Second, 1
				}
				p, srv, cli := pipePS(t, cfg, make([]float64, dim))

				models := make([][]float64, 3)
				var wg sync.WaitGroup
				for id := range cli {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						vec := honest[id]
						if id == 0 {
							vec = []float64{9, 9, 9, 9} // the lowest id lies about d
						}
						if err := cli[id].Send(&transport.Message{
							Type: transport.TypeUpload, Round: 0, Sender: uint32(id), Flag: 1, Vec: vec,
						}); err != nil {
							return
						}
						if m, err := cli[id].Recv(); err == nil {
							models[id] = m.Vec
						}
					}(id)
				}
				err := p.serveRound(0, srv)
				for _, c := range srv {
					if c != nil {
						_ = c.Close() // releases the clients of an aborted round
					}
				}
				wg.Wait()

				if !tolerant {
					if err == nil || !strings.Contains(err.Error(), "dimension mismatch from client 0") {
						t.Fatalf("strict PS: err = %v, want a dimension mismatch naming client 0", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("tolerant PS aborted on one wrong-dimension upload: %v", err)
				}
				st := p.Stats()
				if st.UploadsReceived != 2 || st.UploadsMissed != 1 || st.ClientsLost != 0 {
					t.Fatalf("stats = %+v, want 2 received, 1 missed, 0 lost", st)
				}
				if n := reg.Counter(`fedms_ps_frames_skipped_total{ps="0"}`).Value(); n != 1 {
					t.Fatalf("frames_skipped = %d, want 1", n)
				}
				for id, m := range models {
					if len(m) != dim {
						t.Fatalf("client %d: downlink dim %d, want %d", id, len(m), dim)
					}
					for j := range m {
						if want := (honest[1][j] + honest[2][j]) * 0.5; m[j] != want {
							t.Fatalf("client %d aggregate[%d] = %v, want %v", id, j, m[j], want)
						}
					}
				}
			})
		}
	}
}

// TestClientWrongDimensionDownlink is the client twin of
// TestPSWrongDimensionUpload: a checksummed global model whose
// dimension differs from the client's own is a PS lying on the wire,
// as a v1 dense frame or a codec downlink alike. It must never reach
// the filter, whose payload kernels panic on ragged input. A tolerant
// client skips it like a malformed payload — counted in frames_skipped
// — and trims over the honest survivors; a strict client fails the
// round naming the PS.
func TestClientWrongDimensionDownlink(t *testing.T) {
	const p, liar = 4, 3
	for _, codec := range []bool{false, true} {
		for _, tolerant := range []bool{true, false} {
			codec, tolerant := codec, tolerant
			t.Run(fmt.Sprintf("codec=%v/tolerant=%v", codec, tolerant), func(t *testing.T) {
				learner := makeLearners(t, 1, 41)[0]
				dim := len(learner.Params())
				servers := make([]string, p)
				var wg sync.WaitGroup
				for i := range servers {
					ln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					servers[i] = ln.Addr().String()
					model := make([]float64, dim)
					if i == liar {
						model = make([]float64, dim+7)
					}
					for j := range model {
						model[j] = float64(i + 1)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						answerOneRound(t, ln, model, codec)
					}()
				}
				reg := obs.NewRegistry()
				cfg := ClientConfig{
					ID: 0, Learner: learner, Servers: servers, Rounds: 1, LocalSteps: 1,
					Filter: aggregate.TrimmedMean{Beta: 0.25}, Schedule: nn.ConstantLR(0.1),
					Timeout: 5 * time.Second, AcceptEncodedDownlink: codec, Obs: reg,
				}
				if tolerant {
					cfg.MinModels = p - 1
				}
				stats, err := RunClient(cfg)
				wg.Wait()
				if !tolerant {
					want := fmt.Sprintf("recv from PS %d: global model dimension", liar)
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("strict client: err = %v, want one containing %q", err, want)
					}
					return
				}
				if err != nil {
					t.Fatalf("tolerant client aborted on one wrong-dimension model: %v", err)
				}
				if n := reg.Counter(`fedms_client_frames_skipped_total{client="0"}`).Value(); n != 1 {
					t.Fatalf("frames_skipped = %d, want 1", n)
				}
				if st := stats[0]; st.ModelsReceived != p-1 || !st.Degraded {
					t.Fatalf("stats = %+v, want %d models received, degraded", st, p-1)
				}
				// Trimming one per side of the honest {1, 2, 3} leaves 2.
				for j, x := range learner.Params() {
					if x != 2 {
						t.Fatalf("filtered[%d] = %v, want 2", j, x)
					}
				}
			})
		}
	}
}

// answerOneRound plays one PS for one client and one round: it reads
// the client's two hello frames and its round-0 upload, answers with
// model — a v1 dense frame, or a q8 codec downlink — and hangs up.
func answerOneRound(t *testing.T, ln net.Listener, model []float64, codec bool) {
	defer ln.Close()
	raw, err := ln.Accept()
	if err != nil {
		t.Error(err)
		return
	}
	conn := transport.NewConn(raw)
	defer conn.Close()
	conn.Timeout = 5 * time.Second
	for i := 0; i < 3; i++ {
		if _, err := conn.Recv(); err != nil {
			t.Error(err)
			return
		}
	}
	msg := &transport.Message{Type: transport.TypeGlobalModel, Vec: model}
	if codec {
		c, err := compress.Spec{Kind: "q", Bits: 8}.NewCodec(0)
		if err != nil {
			t.Error(err)
			return
		}
		msg.Vec = nil
		msg.Enc, msg.Payload = c.AppendEncode(nil, model)
	}
	if err := conn.Send(msg); err != nil {
		t.Error(err)
	}
}

// TestAsyncWideWindowMatchesSyncDistributed is the loopback-TCP twin of
// the engine's TestAsyncWideWindowMatchesSync, and the witness that the
// sync barrier really is the degenerate window: an async federation
// whose window outlasts any round and whose traffic is all fresh must
// end on the bit-identical client models of the sync federation — dense
// and ef+topk uploads, flat and sharded server aggregation — without
// ever expiring a window or admitting a stale upload.
func TestAsyncWideWindowMatchesSyncDistributed(t *testing.T) {
	const k, p, rounds, seed = 6, 3, 4, 83
	filter := aggregate.TrimmedMean{Beta: 0.34}
	for _, codec := range []string{"dense", "ef+topk:0.25"} {
		for _, shards := range []int{1, 3} {
			codec, shards := codec, shards
			t.Run(fmt.Sprintf("%s/shards=%d", codec, shards), func(t *testing.T) {
				spec, err := compress.ParseSpec(codec)
				if err != nil {
					t.Fatal(err)
				}
				run := func(async bool) ([][]float64, []PSStats) {
					params, _, stats := runDistributedOpts(t, makeLearners(t, k, seed), p, rounds, filter, seed,
						func(c *PSConfig) {
							c.ServerRule = aggregate.TrimmedMean{Beta: 0.2}
							c.Shards = shards
							if async {
								c.Async, c.Window, c.Staleness = true, 30*time.Second, 2
							}
						},
						func(c *ClientConfig) {
							c.FullUpload = true
							if !spec.IsDense() {
								uc, err := spec.NewCodec(core.ClientCodecSeed(seed, c.ID))
								if err != nil {
									t.Error(err)
									return
								}
								c.Codec = uc
							}
							if async {
								c.Async, c.Window, c.Staleness = true, 30*time.Second, 2
								c.LatencyScale = time.Millisecond // every virtual latency is inside the window
							}
						})
					return params, stats
				}
				syncParams, _ := run(false)
				asyncParams, asyncStats := run(true)
				assertSameParams(t, asyncParams, syncParams, "wide-window async vs sync")
				for i, st := range asyncStats {
					if st.WindowExpired != 0 || st.UploadsStale != 0 || st.UploadsDropped != 0 || st.UploadsDeferred != 0 {
						t.Fatalf("PS %d: wide window produced non-fresh traffic: %+v", i, st)
					}
					if st.UploadsReceived != k*rounds || st.UploadsMissed != 0 {
						t.Fatalf("PS %d: received %d uploads (%d missed), want %d", i, st.UploadsReceived, st.UploadsMissed, k*rounds)
					}
				}
			})
		}
	}
}
