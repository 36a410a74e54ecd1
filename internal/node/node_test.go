package node

import (
	"fmt"
	"net"
	"strings"
	"sync"
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
			Net:       nn.NewLogistic(12, 4, seed),
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
	params := make([][]float64, len(learners))
	for i, l := range learners {
		params[i] = l.Params()
	}
	return params
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

func TestPSRejectsBadConfig(t *testing.T) {
	if _, err := NewPS(PSConfig{ID: 0, ListenAddr: "127.0.0.1:0", Clients: 0, Rounds: 1}); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := NewPS(PSConfig{ID: 0, ListenAddr: "127.0.0.1:0", Clients: 1, Rounds: 0}); err == nil {
		t.Fatal("expected config error")
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
	if err := conn.Send(&transport.Message{Type: transport.TypeHello, Flag: 0, Vec: []float64{1}}); err != nil {
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
	if err := conn.Send(&transport.Message{Type: transport.TypeHello, Flag: 0, Vec: []float64{1}}); err != nil {
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
		if err := conn.Send(&transport.Message{Type: transport.TypeHello, Flag: 0, Vec: []float64{1}}); err != nil {
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
	const k, rounds, seed = 4, 3, 37
	learners := makeLearners(t, k, seed)
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: k, Rounds: rounds,
		Timeout: 5 * time.Second, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, k+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ps.Serve(); err != nil {
			errCh <- err
		}
	}()
	for id, l := range learners {
		wg.Add(1)
		go func(id int, l core.Learner) {
			defer wg.Done()
			_, err := RunClient(ClientConfig{
				ID: id, Learner: l, Servers: []string{ps.Addr()},
				Rounds: rounds, LocalSteps: 2, FullUpload: true,
				Filter: aggregate.Mean{}, Schedule: nn.ConstantLR(0.3),
				Seed: seed, Timeout: 5 * time.Second,
			})
			if err != nil {
				errCh <- err
			}
		}(id, l)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("full upload run failed: %v", err)
	}
	// All clients end with identical models (single PS, mean filter).
	p0 := learners[0].Params()
	for i := 1; i < k; i++ {
		pi := learners[i].Params()
		for j := range p0 {
			if p0[j] != pi[j] {
				t.Fatal("clients diverged under single-PS FedAvg")
			}
		}
	}
}

func TestClientStatsRecorded(t *testing.T) {
	const k, rounds, seed = 2, 4, 38
	learners := makeLearners(t, k, seed)
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: k, Rounds: rounds,
		Timeout: 5 * time.Second, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ps.Serve() }()

	var wg sync.WaitGroup
	statsCh := make(chan []ClientRoundStats, k)
	for id, l := range learners {
		wg.Add(1)
		go func(id int, l core.Learner) {
			defer wg.Done()
			st, err := RunClient(ClientConfig{
				ID: id, Learner: l, Servers: []string{ps.Addr()},
				Rounds: rounds, LocalSteps: 1,
				Filter: aggregate.Mean{}, Schedule: nn.ConstantLR(0.2),
				Seed: seed, Timeout: 5 * time.Second, EvalEvery: 2,
			})
			if err != nil {
				t.Errorf("client %d: %v", id, err)
				return
			}
			statsCh <- st
		}(id, l)
	}
	wg.Wait()
	close(statsCh)
	for st := range statsCh {
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
	learners := makeLearners(t, k, seed)
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: k, Rounds: rounds,
		Seed: seed, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ps.Serve() }()

	var wg sync.WaitGroup
	for id, l := range learners {
		wg.Add(1)
		go func(id int, l core.Learner) {
			defer wg.Done()
			_, err := RunClient(ClientConfig{
				ID: id, Learner: l, Servers: []string{ps.Addr()},
				Rounds: rounds, LocalSteps: 1, FullUpload: true,
				Filter: aggregate.Mean{}, Schedule: nn.ConstantLR(0.1),
				Seed: seed, Timeout: 5 * time.Second,
			})
			if err != nil {
				t.Errorf("client %d: %v", id, err)
			}
		}(id, l)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := ps.Stats()
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
