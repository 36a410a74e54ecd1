package node

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/core"
	"fedms/internal/data"
	"fedms/internal/nn"
	"fedms/internal/randx"
	"fedms/internal/transport"
)

// makeLearners builds a deterministic federation fixture; calling it
// twice with the same seed yields independent but identical learners.
func makeLearners(t *testing.T, k int, seed uint64) []core.Learner {
	t.Helper()
	ds := data.Blobs(data.BlobsConfig{Samples: 800, Features: 12, NumClasses: 4, Seed: seed})
	train, test := ds.Split(0.8)
	parts := data.IIDPartition(train.Len(), k, seed)
	learners := make([]core.Learner, k)
	for i := 0; i < k; i++ {
		learners[i] = core.NewNNLearner(core.NNLearnerConfig{
			Net:       nn.NewMLP(nn.MLPConfig{In: 12, NumClasses: 4, Seed: seed}),
			Train:     train.Subset(parts[i]),
			Test:      test,
			BatchSize: 16,
			Seed:      randx.Derive(seed, fmt.Sprintf("client/%d", i)),
		})
	}
	return learners
}

// runDistributed runs the full protocol over loopback TCP: P PS nodes
// and K client goroutines, with the servers in byzantine running their
// (shared) attack.
func runDistributed(t *testing.T, learners []core.Learner, p, rounds int,
	byzantine map[int]attack.Attack, filter aggregate.Rule, seed uint64) [][]float64 {
	t.Helper()
	cfg := testSpec(len(learners), p, rounds, filter, seed)
	for id, atk := range byzantine {
		cfg.ByzantineIDs, cfg.Attack = append(cfg.ByzantineIDs, id), atk
	}
	params, _, _ := launch(t, cfg, learners, nil, nil)
	return params
}

// runEngine runs the in-process engine on an identical fixture.
func runEngine(t *testing.T, learners []core.Learner, p, rounds, numByz int,
	byzIDs []int, atk attack.Attack, filter aggregate.Rule, seed uint64) [][]float64 {
	t.Helper()
	cfg := core.Config{
		Clients:      len(learners),
		Servers:      p,
		NumByzantine: numByz,
		ByzantineIDs: byzIDs,
		Rounds:       rounds,
		LocalSteps:   2,
		Attack:       atk,
		Filter:       filter,
		Schedule:     nn.ConstantLR(0.3),
		Seed:         seed,
		EvalEvery:    -1,
	}
	eng, err := core.NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return finalParams(learners)
}

func assertSameParams(t *testing.T, a, b [][]float64, context string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: client counts differ", context)
	}
	for k := range a {
		if len(a[k]) != len(b[k]) {
			t.Fatalf("%s: client %d dims differ", context, k)
		}
		for i := range a[k] {
			if a[k][i] != b[k][i] {
				t.Fatalf("%s: client %d param %d: %v vs %v", context, k, i, a[k][i], b[k][i])
			}
		}
	}
}

func TestDistributedMatchesEngineClean(t *testing.T) {
	const k, p, rounds, seed = 6, 3, 4, 31
	dist := runDistributed(t, makeLearners(t, k, seed), p, rounds, nil, aggregate.TrimmedMean{Beta: 0.2}, seed)
	eng := runEngine(t, makeLearners(t, k, seed), p, rounds, 0, nil, attack.None{}, aggregate.TrimmedMean{Beta: 0.2}, seed)
	assertSameParams(t, dist, eng, "clean run")
}

func TestDistributedMatchesEngineUnderNoiseAttack(t *testing.T) {
	const k, p, rounds, seed = 6, 5, 4, 32
	byzID := 2
	dist := runDistributed(t, makeLearners(t, k, seed), p, rounds,
		map[int]attack.Attack{byzID: attack.Noise{Sigma: 1}}, aggregate.TrimmedMean{Beta: 0.2}, seed)
	eng := runEngine(t, makeLearners(t, k, seed), p, rounds, 0, []int{byzID},
		attack.Noise{Sigma: 1}, aggregate.TrimmedMean{Beta: 0.2}, seed)
	assertSameParams(t, dist, eng, "noise attack")
}

func TestDistributedMatchesEngineEquivocatingAttack(t *testing.T) {
	const k, p, rounds, seed = 5, 5, 3, 33
	byzID := 0
	atk := attack.Random{PerClient: true}
	dist := runDistributed(t, makeLearners(t, k, seed), p, rounds,
		map[int]attack.Attack{byzID: atk}, aggregate.TrimmedMean{Beta: 0.2}, seed)
	eng := runEngine(t, makeLearners(t, k, seed), p, rounds, 0, []int{byzID},
		atk, aggregate.TrimmedMean{Beta: 0.2}, seed)
	assertSameParams(t, dist, eng, "equivocating attack")
}

func TestDistributedHistoryAttackParity(t *testing.T) {
	const k, p, rounds, seed = 5, 3, 5, 34
	byzID := 1
	atk := attack.Backward{}
	dist := runDistributed(t, makeLearners(t, k, seed), p, rounds,
		map[int]attack.Attack{byzID: atk}, aggregate.TrimmedMean{Beta: 1.0 / 3.0}, seed)
	eng := runEngine(t, makeLearners(t, k, seed), p, rounds, 0, []int{byzID},
		atk, aggregate.TrimmedMean{Beta: 1.0 / 3.0}, seed)
	assertSameParams(t, dist, eng, "backward attack")
}

// TestDistributedIdleServerMatchesEngine: with more servers than
// clients some server admits nothing in some round, and a Byzantine one
// then re-sends its last aggregate to its history-replaying attack. The
// idle rounds must leave both runtimes on the same models.
func TestDistributedIdleServerMatchesEngine(t *testing.T) {
	const k, p, rounds, seed = 3, 5, 5, 36
	byzID := 2
	idle := false
	for r := 0; r < rounds && !idle; r++ {
		idle = true
		for c := 0; c < k; c++ {
			idle = idle && core.SparseUploadChoice(seed, r, c, p) != byzID
		}
	}
	if !idle {
		t.Fatal("the Byzantine server admits an upload every round: pick another seed")
	}
	atk := attack.Backward{}
	dist := runDistributed(t, makeLearners(t, k, seed), p, rounds,
		map[int]attack.Attack{byzID: atk}, aggregate.TrimmedMean{Beta: 0.2}, seed)
	eng := runEngine(t, makeLearners(t, k, seed), p, rounds, 0, []int{byzID},
		atk, aggregate.TrimmedMean{Beta: 0.2}, seed)
	assertSameParams(t, dist, eng, "idle Byzantine server")
}

func TestPSRejectsBadConfig(t *testing.T) {
	if _, err := NewPS(PSConfig{ID: 0, ListenAddr: "127.0.0.1:0", Clients: 0, Rounds: 1}); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := NewPS(PSConfig{ID: 0, ListenAddr: "127.0.0.1:0", Clients: 1, Rounds: 0}); err == nil {
		t.Fatal("expected config error")
	}
	if ps, err := NewPS(PSConfig{ID: 0, ListenAddr: "127.0.0.1:0", Clients: 1, Rounds: 1, AcceptRate: math.NaN()}); err == nil {
		_ = ps.Close()
		t.Fatal("NaN AcceptRate accepted")
	}
	// A broadcast codec must be a deterministic function of the vector.
	for _, spec := range []string{"ef+topk:0.1", "randk:0.5"} {
		if ps, err := NewPS(PSConfig{ID: 0, ListenAddr: "127.0.0.1:0", Clients: 1, Rounds: 1, DownlinkCodec: mustSpec(t, spec)}); err == nil {
			_ = ps.Close()
			t.Fatalf("downlink codec %s accepted", spec)
		}
	}
}

func TestClientRejectsBadConfig(t *testing.T) {
	if _, err := RunClient(ClientConfig{}); err == nil {
		t.Fatal("expected config error")
	}
	learners := makeLearners(t, 1, 35)
	if _, err := RunClient(ClientConfig{
		ID: 0, Learner: learners[0], Filter: aggregate.Mean{}, Schedule: nn.ConstantLR(0.1),
	}); err == nil || !strings.Contains(err.Error(), "no servers") {
		t.Fatalf("expected no-servers error, got %v", err)
	}
	// A negative quorum is not the strict protocol; it is an error.
	if _, err := RunClient(ClientConfig{
		ID: 0, Learner: learners[0], Filter: aggregate.Mean{}, Schedule: nn.ConstantLR(0.1),
		Servers: []string{"127.0.0.1:1"}, Timeout: 100 * time.Millisecond, MinModels: -1,
	}); err == nil || !strings.Contains(err.Error(), "MinModels -1") {
		t.Fatalf("expected negative-MinModels error, got %v", err)
	}
}

// TestClientQuorumBelowFilterFloorRejected: a MinModels below
// core.FilterFloor, which the filter would refuse in the first short
// round, is a configuration error on MinModels. RunClient raises it
// before dialing any server, and NewLocal before any server is left
// waiting in Accept for clients that will never come.
func TestClientQuorumBelowFilterFloorRejected(t *testing.T) {
	const p = 3
	filter := aggregate.TrimmedMean{Beta: 0.2} // trims 1 of 3 per side: floor 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := ClientConfig{
		ID: 0, Learner: makeLearners(t, 1, 5)[0], Servers: []string{ln.Addr().String(), ln.Addr().String(), ln.Addr().String()},
		Rounds: 1, LocalSteps: 1, Filter: filter, Schedule: nn.ConstantLR(0.1),
		Timeout: time.Second, MinModels: p - 1,
	}
	var fe *core.FieldError
	if _, err := RunClient(cfg); !errors.As(err, &fe) || fe.Field != "MinModels" {
		t.Fatalf("RunClient with MinModels %d under %s = %v, want a MinModels FieldError", cfg.MinModels, filter.Name(), err)
	}
	// A dial would have left a connection in the listener's backlog.
	_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(100 * time.Millisecond))
	if c, err := ln.Accept(); err == nil {
		_ = c.Close()
		t.Fatal("RunClient dialed a server before rejecting its quorum")
	}
	cfg.MinModels = core.FilterFloor(filter, p)
	if _, err := cfg.Validate(); err != nil {
		t.Fatalf("MinModels at the floor rejected: %v", err)
	}

	_, err = NewLocal(testSpec(3, p, 1, filter, 5), makeLearners(t, 3, 5), nil,
		func(cc *ClientConfig) { cc.MinModels = p - 1 })
	if !errors.As(err, &fe) || fe.Field != "MinModels" {
		t.Fatalf("NewLocal = %v, want a MinModels FieldError", err)
	}
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

	for _, p := range []float64{1.5, math.NaN()} {
		bad := base
		bad.Participation = p
		if _, err := RunClient(bad); err == nil || !strings.Contains(err.Error(), "Participation must be in [0, 1]") {
			t.Fatalf("Participation %v: got %v, want the range error", p, err)
		}
	}
	bad := base
	bad = base
	bad.Participation = 0.5 // Clients unset: population unknown
	if _, err := RunClient(bad); err == nil {
		t.Fatal("expected missing-Clients error")
	}
}

func TestPSFailsWhenClientDisconnects(t *testing.T) {
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: 1, Rounds: 3,
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ps.Serve() }()

	conn, err := transport.Dial(ps.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := sendHello(conn, 0, "", []float64{1}); err != nil {
		t.Fatal(err)
	}
	// Disconnect mid-protocol.
	conn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("PS should fail when its only client disconnects")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PS hung after client disconnect")
	}
}

func TestPSTimesOutOnSilentClient(t *testing.T) {
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: 1, Rounds: 1,
		Timeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ps.Serve() }()

	conn, err := transport.Dial(ps.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := sendHello(conn, 0, "", []float64{1}); err != nil {
		t.Fatal(err)
	}
	// Never send the round-0 upload: PS must time out, not hang.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("PS should time out on a silent client")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PS hung on silent client")
	}
}

func TestClientFailsWhenPSDies(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		// Read the hello then slam the connection shut.
		buf := make([]byte, 1024)
		_, _ = c.Read(buf)
		c.Close()
		ln.Close()
	}()
	learners := makeLearners(t, 1, 36)
	_, err = RunClient(ClientConfig{
		ID:         0,
		Learner:    learners[0],
		Servers:    []string{ln.Addr().String()},
		Rounds:     2,
		LocalSteps: 1,
		Filter:     aggregate.Mean{},
		Schedule:   nn.ConstantLR(0.1),
		Timeout:    500 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("client should fail when its PS dies")
	}
}

func TestPSRejectsDuplicateClientIDs(t *testing.T) {
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: 2, Rounds: 1,
		Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ps.Serve() }()

	for i := 0; i < 2; i++ {
		conn, err := transport.Dial(ps.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := sendHello(conn, 0, "", []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "invalid client id") {
			t.Fatalf("expected duplicate-id error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PS hung on duplicate ids")
	}
}

func TestDistributedFullUpload(t *testing.T) {
	// Full upload with a single PS reduces to classical FedAvg; ensure
	// the path works end to end.
	cfg := testSpec(4, 1, 3, aggregate.Mean{}, 37)
	cfg.Upload = core.FullUpload
	params, _, _ := launch(t, cfg, makeLearners(t, 4, 37), nil, nil)
	// All clients end with identical models (single PS, mean filter).
	for i := 1; i < len(params); i++ {
		assertSameParams(t, params[:1], params[i:i+1], "single-PS FedAvg clients")
	}
}

func TestClientStatsRecorded(t *testing.T) {
	const k, rounds, seed = 2, 4, 38
	cfg := testSpec(k, 1, rounds, aggregate.Mean{}, seed)
	cfg.LocalSteps, cfg.Schedule = 1, nn.ConstantLR(0.2)
	_, clientStats, _ := launch(t, cfg, makeLearners(t, k, seed), nil,
		func(cc *ClientConfig) { cc.EvalEvery = 2 })
	for _, st := range clientStats {
		if len(st) != rounds {
			t.Fatalf("stats rounds = %d, want %d", len(st), rounds)
		}
		if !st[1].Evaluated || st[0].Evaluated {
			t.Fatalf("EvalEvery=2 evaluation pattern wrong: %+v", st)
		}
		if st[0].UploadedTo != 0 {
			t.Fatalf("single PS: UploadedTo = %d", st[0].UploadedTo)
		}
	}
}

func TestPSStatsAccounting(t *testing.T) {
	const k, rounds, seed = 3, 4, 44
	cfg := testSpec(k, 1, rounds, aggregate.Mean{}, seed)
	cfg.LocalSteps, cfg.Schedule, cfg.Upload = 1, nn.ConstantLR(0.1), core.FullUpload
	learners := makeLearners(t, k, seed)
	_, _, psStats := launch(t, cfg, learners, nil, nil)
	st := psStats[0]
	dim := learners[0].NumParams()
	if st.RoundsServed != rounds {
		t.Fatalf("RoundsServed = %d, want %d", st.RoundsServed, rounds)
	}
	if st.UploadsReceived != k*rounds {
		t.Fatalf("UploadsReceived = %d, want %d", st.UploadsReceived, k*rounds)
	}
	if st.FloatsIn != k*rounds*dim || st.FloatsOut != k*rounds*dim {
		t.Fatalf("floats in/out = %d/%d, want %d", st.FloatsIn, st.FloatsOut, k*rounds*dim)
	}
}
