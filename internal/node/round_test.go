package node

import (
	"fmt"
	"net"
	"slices"
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
// have admitted, and seed plays the hello seed. srv[i] is the server's
// end of client i's connection, cli[i] the client's.
func pipePS(t *testing.T, cfg PSConfig, seed []float64) (p *PS, srv, cli []*transport.Conn) {
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
	p.srv = p.newServer(seed)
	p.v2ok = make([]bool, cfg.Clients)
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
					Timeout: 5 * time.Second, Obs: reg,
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
// and ef+topk uploads under a trimmed-mean server rule — without
// ever expiring a window or admitting a stale upload.
func TestAsyncWideWindowMatchesSyncDistributed(t *testing.T) {
	const k, p, rounds, seed = 6, 3, 4, 83
	filter := aggregate.TrimmedMean{Beta: 0.34}
	for _, codec := range []string{"dense", "ef+topk:0.25"} {
		codec := codec
		t.Run(codec, func(t *testing.T) {
			spec, err := compress.ParseSpec(codec)
			if err != nil {
				t.Fatal(err)
			}
			run := func(async bool) ([][]float64, []PSStats) {
				params, _, stats := runDistributedOpts(t, makeLearners(t, k, seed), p, rounds, filter, seed,
					func(c *PSConfig) {
						c.ServerRule = aggregate.TrimmedMean{Beta: 0.2}
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

// TestPSStrictSendNamesLowestFailingClient: when several downlink sends
// fail, a strict PS reports the lowest failing client id whatever order
// the sends finish in.
func TestPSStrictSendNamesLowestFailingClient(t *testing.T) {
	p, srv, cli := pipePS(t, PSConfig{
		ID: 0, Clients: 3, Rounds: 1, Timeout: 5 * time.Second,
	}, []float64{1, 2, 3})
	_ = cli[1].Close()
	_ = cli[2].Close()
	received := make(chan error, 1)
	go func() {
		_, err := cli[0].Recv()
		received <- err
	}()
	err := p.disseminate(0, srv, roundTally{})
	if err == nil || !strings.Contains(err.Error(), "send to client 1:") {
		t.Fatalf("disseminate = %v, want the send to client 1 named", err)
	}
	if err := <-received; err != nil {
		t.Fatalf("client 0 missed its model: %v", err)
	}
}

// TestPSStrictBarrierNamesLowestFailingClient is the barrier twin of
// TestPSStrictSendNamesLowestFailingClient: when several uploads fail,
// a strict PS reports the lowest failing client id, not the first
// reader to finish.
func TestPSStrictBarrierNamesLowestFailingClient(t *testing.T) {
	p, srv, cli := pipePS(t, PSConfig{
		ID: 0, Clients: 3, Rounds: 1, Timeout: 5 * time.Second,
	}, make([]float64, 4))
	_ = cli[2].Close()
	go func() {
		time.Sleep(300 * time.Millisecond)
		_ = cli[0].Close()
	}()
	go func() {
		_ = cli[1].Send(&transport.Message{Type: transport.TypeUpload, Round: 0, Sender: 1, Flag: 1, Vec: []float64{1, 2, 3, 4}})
	}()
	err := p.serveRound(0, srv)
	if err == nil || !strings.Contains(err.Error(), "client 0:") {
		t.Fatalf("serveRound = %v, want client 0 named", err)
	}
}

// TestPSDeadPeerDoesNotArmStragglerCap: a tolerant sync barrier caps
// its holdouts at Timeout/2 once this round's uploads are provably
// flowing, and a dead connection proves nothing of the kind. Client 0's
// connection closes as the round opens and client 1 uploads past the
// cap that death would have armed, but inside its own Timeout: the
// upload must be admitted, not counted missed.
func TestPSDeadPeerDoesNotArmStragglerCap(t *testing.T) {
	const timeout, late = 2 * time.Second, 1500 * time.Millisecond
	up := []float64{1, 2, 3, 4}
	p, srv, cli := pipePS(t, PSConfig{
		ID: 0, Clients: 2, Rounds: 1, Tolerant: true, Timeout: timeout,
	}, make([]float64, len(up)))
	_ = cli[0].Close()
	got := make(chan []float64, 1)
	go func() { // drains its model, so the PS's downlink send never blocks
		time.Sleep(late)
		if err := cli[1].Send(&transport.Message{Type: transport.TypeUpload, Round: 0, Sender: 1, Flag: 1, Vec: up}); err != nil {
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
	start := time.Now()
	if err := p.serveRound(0, srv); err != nil {
		t.Fatalf("serveRound: %v", err)
	}
	elapsed := time.Since(start)
	if st := p.Stats(); st.UploadsReceived != 1 || st.UploadsMissed != 1 {
		t.Fatalf("received %d and missed %d uploads, want 1 and 1: the dead client armed the straggler cap",
			st.UploadsReceived, st.UploadsMissed)
	}
	if elapsed < late || elapsed >= timeout {
		t.Fatalf("round took %v, want between %v and %v", elapsed, late, timeout)
	}
	if m := <-got; !slices.Equal(m, up) {
		t.Fatalf("client 1 got %v, want its own upload %v", m, up)
	}
}

// TestPSOneMemberAggregateSurvivesBufferReuse: the PS hands a round's
// upload buffers back to their connections once the aggregate is
// computed, so the next frame on that connection is decoded into the
// very memory the round's only member lived in. The aggregate — which
// the server keeps and re-sends when a round admits nothing — must not
// notice: a duplicated round-0 upload carrying other values lands in
// the released buffer, round 1 admits nothing, and the client must
// still get round 0's model.
func TestPSOneMemberAggregateSurvivesBufferReuse(t *testing.T) {
	first := []float64{1, 2, 3, 4}
	later := []float64{-7, 8, -9, 10}
	p, srv, cli := pipePS(t, PSConfig{
		ID: 0, Clients: 1, Rounds: 3, Tolerant: true, Timeout: 5 * time.Second,
	}, make([]float64, len(first)))

	// round drives one round: the client sends ups, the PS serves the
	// round, and the client's global model is returned.
	round := func(r int, ups ...*transport.Message) []float64 {
		t.Helper()
		got := make(chan []float64, 1)
		go func() {
			for _, m := range ups {
				if err := cli[0].Send(m); err != nil {
					got <- nil
					return
				}
			}
			m, err := cli[0].Recv()
			if err != nil || m.Round != uint32(r) {
				got <- nil
				return
			}
			got <- m.Vec
		}()
		if err := p.serveRound(r, srv); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		p.sc.Advance()
		return <-got
	}
	upload := func(r int, vec []float64) *transport.Message {
		m := &transport.Message{Type: transport.TypeUpload, Round: uint32(r), Vec: vec}
		if vec != nil {
			m.Flag = 1
		}
		return m
	}

	if got := round(0, upload(0, first)); !slices.Equal(got, first) {
		t.Fatalf("round 0 sent %v, want the one member %v", got, first)
	}
	if got := round(1, upload(0, later), upload(1, nil)); !slices.Equal(got, first) {
		t.Fatalf("round 1 re-sent %v, want round 0's aggregate %v: it aliased the reused upload buffer", got, first)
	}
	if got := round(2, upload(2, later)); !slices.Equal(got, later) {
		t.Fatalf("round 2 sent %v, want the one member %v", got, later)
	}
	if st := p.Stats(); st.UploadsReceived != 2 || st.UploadsMissed != 0 {
		t.Fatalf("stats = %+v, want 2 uploads received and none missed", st)
	}
}

// TestPSSyncBarrierReadAhead pins the PS half of the sync barrier's
// one-frame read-ahead: client 0's round-0 upload is lost and the
// barrier reads its round-1 upload instead. Round 0 counts that client
// missed without dropping its connection, and round 1 admits the frame
// it already holds — client 0 never sends it again.
func TestPSSyncBarrierReadAhead(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	p, srv, cli := pipePS(t, PSConfig{
		ID: 0, Clients: 2, Rounds: 2, Tolerant: true, Timeout: 5 * time.Second,
	}, make([]float64, len(a)))
	upload := func(r int, vec []float64) *transport.Message {
		return &transport.Message{Type: transport.TypeUpload, Round: uint32(r), Flag: 1, Vec: vec}
	}
	// Each client sends its script, receiving after every marker; the
	// models it receives land in got, one per round.
	got := [2][][]float64{}
	var wg sync.WaitGroup
	play := func(id int, ups ...*transport.Message) {
		defer wg.Done()
		for r := 0; r < 2; r++ {
			if r < len(ups) && ups[r] != nil {
				if err := cli[id].Send(ups[r]); err != nil {
					t.Error(err)
					return
				}
			}
			m, err := cli[id].Recv()
			if err != nil || m.Round != uint32(r) {
				t.Errorf("client %d round %d: got %v, %v", id, r, m, err)
				return
			}
			got[id] = append(got[id], m.Vec)
		}
	}
	wg.Add(2)
	go play(0, upload(1, a)) // round 0's upload lost; round 1's sent once
	go play(1, upload(0, b), upload(1, b))

	if err := p.serveRound(0, srv); err != nil {
		t.Fatalf("round 0: %v", err)
	}
	if st := p.Stats(); st.UploadsReceived != 1 || st.UploadsMissed != 1 || st.ClientsLost != 0 || srv[0] == nil {
		t.Fatalf("round 0 stats = %+v, want 1 received, 1 missed, none lost", st)
	}
	p.sc.Advance()
	if err := p.serveRound(1, srv); err != nil {
		t.Fatalf("round 1: %v", err)
	}
	wg.Wait()
	if st := p.Stats(); st.UploadsReceived != 3 || st.UploadsMissed != 1 {
		t.Fatalf("stats = %+v, want 3 received, 1 missed: round 1 lost the frame read ahead", st)
	}
	for id := range got {
		if len(got[id]) != 2 || !slices.Equal(got[id][0], b) {
			t.Fatalf("client %d models %v, want round 0 = %v", id, got[id], b)
		}
		for j, x := range got[id][1] {
			if want := (a[j] + b[j]) / 2; x != want {
				t.Fatalf("client %d round 1 [%d] = %v, want %v", id, j, x, want)
			}
		}
	}
}

// TestClientSyncBarrierReadAhead is the client half: a PS whose
// round-0 model was lost has already broadcast round 1's when the
// client reads it. The tolerant client counts that PS missing in round
// 0, keeps the connection, and receives the held frame as its round-1
// model.
func TestClientSyncBarrierReadAhead(t *testing.T) {
	const p = 3
	learner := makeLearners(t, 1, 43)[0]
	dim := len(learner.Params())
	servers, wait := fakeServers(t, p, 2, func(ps, round int) []*transport.Message {
		if ps == p-1 {
			if round == 0 {
				return []*transport.Message{globalModel(1, dim, ps)}
			}
			return nil // round 1's model already went out
		}
		return []*transport.Message{globalModel(round, dim, ps)}
	})
	reg := obs.NewRegistry()
	arrived := make([][]int, 2)
	stats, err := RunClient(ClientConfig{
		ID: 0, Learner: learner, Servers: servers, Rounds: 2, LocalSteps: 1,
		Filter: aggregate.Mean{}, Schedule: nn.ConstantLR(0.1),
		Timeout: 5 * time.Second, MinModels: p - 1, Obs: reg,
		OnRound: func(round int, received map[int][]float64, _ []float64) {
			for ps := range received {
				arrived[round] = append(arrived[round], ps)
			}
			slices.Sort(arrived[round])
		},
	})
	wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].ModelsReceived != p-1 || !stats[0].Degraded || !slices.Equal(arrived[0], []int{0, 1}) {
		t.Fatalf("round 0: %d models from %v, want PSs [0 1]", stats[0].ModelsReceived, arrived[0])
	}
	if stats[1].ModelsReceived != p || !slices.Equal(arrived[1], []int{0, 1, 2}) {
		t.Fatalf("round 1: %d models from %v, want all %d: the frame read ahead was lost", stats[1].ModelsReceived, arrived[1], p)
	}
	if n := reg.Counter(`fedms_client_frames_skipped_total{client="0"}`).Value(); n != 0 {
		t.Fatalf("frames_skipped = %d, want 0", n)
	}
	for j, x := range learner.Params() {
		if x != 2 { // the mean of PS values 1, 2, 3
			t.Fatalf("round 1 filtered[%d] = %v, want 2", j, x)
		}
	}
}

// TestClientUnusableModelEndsPeersRound: a PS sends a checksummed model
// the client cannot use — the wrong dimension, or a malformed codec
// payload — and then stays silent, as an honest PS would after its one
// broadcast. The frame is that PS's round marker: a tolerant client
// uses it up, counts the PS missed for the round and keeps the
// connection, instead of waiting out its Timeout for a second model.
func TestClientUnusableModelEndsPeersRound(t *testing.T) {
	const p, liar, timeout = 4, 3, 4 * time.Second
	for _, kind := range []string{"dimension", "payload"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			learner := makeLearners(t, 1, 47)[0]
			dim := len(learner.Params())
			servers, wait := fakeServers(t, p, 2, func(ps, round int) []*transport.Message {
				m := globalModel(round, dim, ps)
				if ps == liar && round == 0 {
					if kind == "dimension" {
						m = globalModel(round, dim+5, ps)
					} else {
						m.Vec, m.Enc, m.Payload = nil, compress.EncDense, make([]byte, 8*dim-3)
					}
				}
				return []*transport.Message{m}
			})
			reg := obs.NewRegistry()
			start := time.Now()
			var firstRound time.Duration
			stats, err := RunClient(ClientConfig{
				ID: 0, Learner: learner, Servers: servers, Rounds: 2, LocalSteps: 1,
				Filter: aggregate.TrimmedMean{Beta: 0.25}, Schedule: nn.ConstantLR(0.1),
				Timeout: timeout, MinModels: p - 1, Obs: reg,
				OnRound: func(round int, _ map[int][]float64, _ []float64) {
					if round == 0 {
						firstRound = time.Since(start)
					}
				},
			})
			wait()
			if err != nil {
				t.Fatal(err)
			}
			if firstRound >= timeout/2 {
				t.Fatalf("round 0 took %v, want under %v: the client waited for a second model", firstRound, timeout/2)
			}
			if n := reg.Counter(`fedms_client_frames_skipped_total{client="0"}`).Value(); n != 1 {
				t.Fatalf("frames_skipped = %d, want 1", n)
			}
			if stats[0].ModelsReceived != p-1 || stats[1].ModelsReceived != p {
				t.Fatalf("models received %d then %d, want %d then %d (connection kept)",
					stats[0].ModelsReceived, stats[1].ModelsReceived, p-1, p)
			}
		})
	}
}

// TestClientBarrierIsNeverCapped pins that the straggler cap is the
// PS's alone: a tolerant client waits its full Timeout for every model,
// so a PS answering at 0.75 × Timeout, well after its peer, still
// counts and the round is not degraded.
func TestClientBarrierIsNeverCapped(t *testing.T) {
	const p, timeout = 2, 2 * time.Second
	learner := makeLearners(t, 1, 53)[0]
	dim := len(learner.Params())
	servers, wait := fakeServers(t, p, 1, func(ps, round int) []*transport.Message {
		if ps == 1 {
			time.Sleep(timeout * 3 / 4)
		}
		return []*transport.Message{globalModel(round, dim, ps)}
	})
	stats, err := RunClient(ClientConfig{
		ID: 0, Learner: learner, Servers: servers, Rounds: 1, LocalSteps: 1,
		Filter: aggregate.Mean{}, Schedule: nn.ConstantLR(0.1),
		Timeout: timeout, MinModels: 1,
	})
	wait()
	if err != nil {
		t.Fatal(err)
	}
	if st := stats[0]; st.ModelsReceived != p || st.Degraded {
		t.Fatalf("stats = %+v, want both models received, not degraded", st)
	}
	for j, x := range learner.Params() {
		if x != 1.5 { // the mean of PS values 1 and 2
			t.Fatalf("filtered[%d] = %v, want 1.5", j, x)
		}
	}
}

// globalModel is PS ps's round-r model: dim coordinates, each ps+1.
func globalModel(round, dim, ps int) *transport.Message {
	vec := make([]float64, dim)
	for j := range vec {
		vec[j] = float64(ps + 1)
	}
	return &transport.Message{Type: transport.TypeGlobalModel, Round: uint32(round), Sender: uint32(ps), Vec: vec}
}

// fakeServers starts p scripted PSs for one client and returns their
// addresses and a wait for them to finish. Each reads the client's two
// hello frames, then per round one upload, answered with reply(ps,
// round); after the last round it stays connected and silent until the
// client hangs up.
func fakeServers(t *testing.T, p, rounds int, reply func(ps, round int) []*transport.Message) ([]string, func()) {
	t.Helper()
	servers := make([]string, p)
	var wg sync.WaitGroup
	for i := range servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = ln.Addr().String()
		wg.Add(1)
		go func(ps int) {
			defer wg.Done()
			defer ln.Close()
			raw, err := ln.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			conn := transport.NewConn(raw)
			defer conn.Close()
			conn.Timeout = 30 * time.Second
			for i := 0; i < 2+rounds; i++ {
				if _, err := conn.Recv(); err != nil {
					t.Errorf("PS %d: %v", ps, err)
					return
				}
				if round := i - 2; round >= 0 {
					for _, m := range reply(ps, round) {
						if err := conn.Send(m); err != nil {
							t.Errorf("PS %d: %v", ps, err)
							return
						}
					}
				}
			}
			_, _ = conn.Recv() // silent until the client hangs up
		}(i)
	}
	return servers, wg.Wait
}
