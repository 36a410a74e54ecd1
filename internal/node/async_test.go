package node

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/checkpoint"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/nn"
	"fedms/internal/sched"
)

// asyncChaosOpts is the clean windowed-lifecycle scenario: the real
// window stays generous (3s — no CI deadline pressure) while the
// virtual latency scale is four windows, so seeded arrival delays span
// 0-3 rounds and a staleness bound of 2 exercises every admission
// outcome over live sockets.
func asyncChaosOpts(seed uint64) chaosOpts {
	return chaosOpts{
		k: 8, p: 3, rounds: 6, seed: seed,
		filter:        aggregate.TrimmedMean{Beta: 0.2},
		minModels:     3,
		psTolerant:    true,
		async:         true,
		window:        3 * time.Second,
		staleness:     2,
		latencyScale:  12 * time.Second,
		psTimeout:     10 * time.Second,
		clientTimeout: 10 * time.Second,
	}
}

// TestAsyncDeterminismChaos is the distributed half of the async
// reproducibility contract (its own named verify stage): a live
// federation on real sockets, with stale-tagged backlog traffic and
// down-weighted admission, run twice from the same seed must produce
// identical PS stats, identical client stats and bit-identical final
// models — the wall clock never leaks into the computation as long as
// every marker lands inside the window.
func TestAsyncDeterminismChaos(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec string
	}{
		{"dense", ""},
		{"topk", "topk:0.5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := asyncChaosOpts(301)
			if tc.codec != "" {
				spec, err := compress.ParseSpec(tc.codec)
				if err != nil {
					t.Fatal(err)
				}
				o.upCodec = spec
			}
			params, psStats, clientStats := runChaos(t, o)
			again, psAgain, clientAgain := runChaos(t, o)

			assertSameParams(t, params, again, "async seeded rerun")
			if !reflect.DeepEqual(psStats, psAgain) {
				t.Fatalf("PS stats diverged across identical seeded runs:\n%+v\n%+v", psStats, psAgain)
			}
			if !reflect.DeepEqual(clientStats, clientAgain) {
				t.Fatalf("client stats diverged across identical seeded runs")
			}

			var fresh, stale, dropped int
			for _, st := range psStats {
				fresh += st.UploadsReceived - st.UploadsStale
				stale += st.UploadsStale
				dropped += st.UploadsDropped
				if st.RoundsServed != o.rounds {
					t.Fatalf("PS served %d rounds, want %d", st.RoundsServed, o.rounds)
				}
				if st.WindowExpired != 0 {
					t.Fatalf("clean run hit the window deadline %d times", st.WindowExpired)
				}
			}
			if fresh == 0 || stale == 0 || dropped == 0 {
				t.Fatalf("admission outcomes not all exercised: fresh=%d stale=%d dropped=%d",
					fresh, stale, dropped)
			}
			var staleSent, clientDropped, backlog int
			for _, st := range clientStats {
				for _, rs := range st {
					staleSent += rs.StaleUploads
					clientDropped += rs.DroppedUploads
					backlog += rs.BacklogDepth
				}
			}
			if staleSent != stale+dropped {
				t.Fatalf("clients sent %d stale uploads, PSs accounted %d stale + %d dropped",
					staleSent, stale, dropped)
			}
			if clientDropped != 0 {
				t.Fatalf("clean run abandoned %d backlog uploads", clientDropped)
			}
			if backlog == 0 {
				t.Fatal("backlog never held a delayed upload; virtual straggling untested")
			}
		})
	}
}

// slowLearner injects a real wall-clock training delay, turning one
// client into a genuine straggler (not a virtual one).
type slowLearner struct {
	core.Learner
	sleep time.Duration
}

func (s slowLearner) LocalTrain(steps, globalStep int, sc nn.Schedule) float64 {
	time.Sleep(s.sleep)
	return s.Learner.LocalTrain(steps, globalStep, sc)
}

// runStraggler runs k clients against p tolerant PSs with client k-1
// sleeping `sleep` before every local training stage, and returns how
// long the PS tier took to serve all rounds plus the final PS stats.
// In async mode the straggler may outlive the servers; its error (if
// any) is part of the scenario, not a failure.
func runStraggler(t *testing.T, async bool, sleep time.Duration) (time.Duration, []PSStats) {
	t.Helper()
	const k, p, rounds, seed = 3, 2, 4, 310
	learners := makeLearners(t, k, seed)

	servers := make([]*PS, p)
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		cfg := PSConfig{
			ID: i, ListenAddr: "127.0.0.1:0", Clients: k, Rounds: rounds,
			Seed: seed, Timeout: 10 * time.Second, Tolerant: true,
		}
		if async {
			cfg.Async = true
			cfg.Window = 200 * time.Millisecond
			cfg.Staleness = 8
		}
		ps, err := NewPS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = ps
		addrs[i] = ps.Addr()
	}

	start := time.Now()
	var psWG sync.WaitGroup
	errCh := make(chan error, p+k)
	for _, ps := range servers {
		psWG.Add(1)
		go func(ps *PS) {
			defer psWG.Done()
			if err := ps.Serve(); err != nil {
				errCh <- err
			}
		}(ps)
	}

	var clientWG sync.WaitGroup
	for id := range learners {
		clientWG.Add(1)
		go func(id int) {
			defer clientWG.Done()
			l := learners[id]
			straggler := id == k-1
			if straggler {
				l = slowLearner{Learner: l, sleep: sleep}
			}
			cfg := ClientConfig{
				ID: id, Learner: l, Servers: addrs,
				Rounds: rounds, LocalSteps: 2,
				Filter: aggregate.TrimmedMean{Beta: 0.2}, Schedule: nn.ConstantLR(0.3),
				Seed: seed, Timeout: 10 * time.Second, MinModels: 1,
			}
			if async {
				cfg.Async = true
				cfg.Window = 200 * time.Millisecond
				cfg.Staleness = 8
				cfg.LatencyScale = time.Millisecond // no virtual delays: the straggling is real
			}
			_, err := RunClient(cfg)
			// An async straggler can outlive the servers; only a fast
			// client failing breaks the scenario.
			if err != nil && !(async && straggler) {
				errCh <- err
			}
		}(id)
	}

	psWG.Wait()
	psDur := time.Since(start)
	clientWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("straggler run failed: %v", err)
	}

	stats := make([]PSStats, p)
	for i, ps := range servers {
		stats[i] = ps.Stats()
	}
	return psDur, stats
}

// TestChaosAsyncStragglerWindow is the scheduling acceptance criterion
// on live sockets: with one client sleeping a full second before every
// training stage, the sync barrier makes every PS round as slow as the
// slowest client (≥ rounds × sleep in total), while the async window
// closes rounds on the window cadence — the PS tier finishes in well
// under half the sync time and surfaces the straggler as window
// expiries, not protocol faults.
func TestChaosAsyncStragglerWindow(t *testing.T) {
	const sleep = time.Second
	const rounds = 4

	syncDur, _ := runStraggler(t, false, sleep)
	asyncDur, asyncStats := runStraggler(t, true, sleep)

	if syncDur < time.Duration(rounds)*sleep {
		t.Fatalf("sync PS tier finished in %v — the barrier should serialize %d sleeps of %v",
			syncDur, rounds, sleep)
	}
	if asyncDur > syncDur/2 {
		t.Fatalf("async PS tier took %v, not meaningfully under the sync %v — round time is not window-bounded",
			asyncDur, syncDur)
	}
	expired := 0
	for _, st := range asyncStats {
		expired += st.WindowExpired
		if st.RoundsServed != rounds {
			t.Fatalf("async PS served %d rounds, want %d", st.RoundsServed, rounds)
		}
	}
	if expired == 0 {
		t.Fatal("async run never expired a window; the straggler was not actually late")
	}
}

// TestChaosAsyncRestartResumesSpill drives the crash/restart path
// twice: a tolerant async PS with a checkpoint crashes, restarts at the
// checkpointed round horizon one round behind its clients, absorbs
// their future-round uploads through the spill buffer, flushes that
// spill into its next checkpoint, crashes again mid-lag, and the second
// restart replays the recovered segment. The federation must complete
// with every client on the same final model.
func TestChaosAsyncRestartResumesSpill(t *testing.T) {
	const k, p, rounds, seed = 3, 2, 6, 312
	const crashRounds = 2
	learners := makeLearners(t, k, seed)
	ckpt := t.TempDir() + "/ps1.ckpt"

	psCfg := func(listen string) PSConfig {
		return PSConfig{
			ID: 1, ListenAddr: listen, Clients: k, Rounds: rounds,
			Seed: seed, Timeout: 5 * time.Second, Tolerant: true,
			Async: true, Window: 2 * time.Second, Staleness: 3,
			CheckpointPath: ckpt,
		}
	}

	ps0, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: k, Rounds: rounds,
		Seed: seed, Timeout: 5 * time.Second, Tolerant: true,
		Async: true, Window: 2 * time.Second, Staleness: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := psCfg("127.0.0.1:0")
	first.CrashAfterRound = crashRounds
	ps1, err := NewPS(first)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ps0.Addr(), ps1.Addr()}

	var wg sync.WaitGroup
	errCh := make(chan error, k+4)
	var restart1, restart2 PSStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ps0.Serve(); err != nil {
			errCh <- err
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ps1.Serve(); !errors.Is(err, ErrCrashed) {
			errCh <- err
			return
		}
		// First restart: resume from the checkpoint (round horizon =
		// crashRounds), lag one round behind the clients — their
		// future-round uploads land in the spill — then crash again with
		// the spill flushed into the checkpoint.
		c1 := psCfg(addrs[1])
		c1.CrashAfterRound = 1
		r1, err := NewPS(c1)
		if err != nil {
			errCh <- err
			return
		}
		if err := r1.Serve(); !errors.Is(err, ErrCrashed) {
			errCh <- err
			return
		}
		restart1 = r1.Stats()
		// Second restart: recover the flushed spill segment and replay
		// it through to completion.
		r2, err := NewPS(psCfg(addrs[1]))
		if err != nil {
			errCh <- err
			return
		}
		if err := r2.Serve(); err != nil {
			errCh <- err
			return
		}
		restart2 = r2.Stats()
	}()

	for id, l := range learners {
		wg.Add(1)
		go func(id int, l core.Learner) {
			defer wg.Done()
			_, err := RunClient(ClientConfig{
				ID: id, Learner: l, Servers: addrs,
				Rounds: rounds, LocalSteps: 2, FullUpload: true,
				Filter: aggregate.TrimmedMean{Beta: 0.25}, Schedule: nn.ConstantLR(0.3),
				Seed: seed, Timeout: time.Second,
				MinModels: 1, Redial: true,
				DialAttempts: 8, DialBackoff: 50 * time.Millisecond,
				Async: true, Window: 2 * time.Second, Staleness: 3,
				LatencyScale: time.Millisecond,
			})
			if err != nil {
				errCh <- err
			}
		}(id, l)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("async crash-restart run failed: %v", err)
	}

	if restart1.UploadsDeferred == 0 {
		t.Fatal("lagging restart never deferred a future-round upload; spill path untested")
	}
	if restart1.SpillPeakBytes == 0 {
		t.Fatal("deferred uploads never reached the spill segment on disk")
	}
	if restart2.RoundsServed == 0 || restart2.UploadsReceived == 0 {
		t.Fatalf("second restart served nothing: %+v", restart2)
	}
	served := crashRounds + 1 + restart2.RoundsServed
	if served != rounds {
		t.Fatalf("PS 1 lifetimes served %d rounds in total, want %d", served, rounds)
	}

	p0 := learners[0].Params()
	for i := 1; i < k; i++ {
		pi := learners[i].Params()
		for j := range p0 {
			if math.Float64bits(p0[j]) != math.Float64bits(pi[j]) {
				t.Fatalf("clients diverged after async crash-restart (client %d param %d)", i, j)
			}
		}
	}
}

// TestPSAsyncConfigValidation pins NewPS's fail-fast contract around
// the async knobs, mirroring the engine's TestAsyncConfigValidation.
func TestPSAsyncConfigValidation(t *testing.T) {
	base := func() PSConfig {
		return PSConfig{
			ID: 0, ListenAddr: "127.0.0.1:0", Clients: 2, Rounds: 3, Seed: 1,
			Tolerant: true,
			Async:    true, Window: time.Second, Staleness: 2,
		}
	}
	tests := []struct {
		name   string
		mutate func(*PSConfig)
	}{
		{"window without async", func(c *PSConfig) { c.Async = false; c.Staleness = 0 }},
		{"staleness without async", func(c *PSConfig) { c.Async = false; c.Window = 0 }},
		{"spill knobs without async", func(c *PSConfig) { c.Async = false; c.Window = 0; c.Staleness = 0; c.SpillMem = 4096 }},
		{"checkpoint without async", func(c *PSConfig) { c.Async = false; c.Window = 0; c.Staleness = 0; c.CheckpointPath = "x.ckpt" }},
		{"negative window", func(c *PSConfig) { c.Window = -time.Second }},
		{"negative staleness", func(c *PSConfig) { c.Staleness = -1 }},
		{"non-weighted server rule", func(c *PSConfig) { c.ServerRule = aggregate.NoFuse{Rule: aggregate.Mean{}} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			tt.mutate(&cfg)
			if ps, err := NewPS(cfg); err == nil {
				_ = ps.Close()
				t.Fatal("expected config error")
			}
		})
	}
	// The valid async config binds, and the window defaults when unset.
	cfg := base()
	cfg.Window = 0
	ps, err := NewPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ps.cfg.Window != sched.DefaultLatencyScale/4 {
		t.Fatalf("default Window = %v", ps.cfg.Window)
	}
	_ = ps.Close()
}

// asyncCheckpoint writes a round-1 async checkpoint of params under
// seed 1, window 1s and staleness 2, and returns the PS config that
// resumes from it.
func asyncCheckpoint(t *testing.T, params []float64, async bool) PSConfig {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ps.ckpt")
	st := &checkpoint.State{Round: 1, Seed: 1, Params: params}
	if async {
		checkpoint.WriteAsyncMeta(st, checkpoint.AsyncState{Window: time.Second, Staleness: 2})
	}
	if err := checkpoint.SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	return PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: 1, Rounds: 3, Seed: 1,
		Tolerant: true, Timeout: 5 * time.Second,
		Async: true, Window: time.Second, Staleness: 2, CheckpointPath: path,
	}
}

// TestPSCheckpointRestoreRejectsMismatch: NewPS resumes only a
// checkpoint written by the federation it is configured for.
func TestPSCheckpointRestoreRejectsMismatch(t *testing.T) {
	tests := []struct {
		name   string
		async  bool
		mutate func(*PSConfig)
		want   string // error substring; "" resumes
	}{
		{"matching", true, func(*PSConfig) {}, ""},
		{"window", true, func(c *PSConfig) { c.Window = 2 * time.Second }, "window/staleness"},
		{"staleness", true, func(c *PSConfig) { c.Staleness = 1 }, "window/staleness"},
		{"seed", true, func(c *PSConfig) { c.Seed = 2 }, "seed"},
		{"not async", false, func(*PSConfig) {}, "not an async checkpoint"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := asyncCheckpoint(t, []float64{1, 2, 3, 4}, tt.async)
			tt.mutate(&cfg)
			ps, err := NewPS(cfg)
			if err == nil {
				_ = ps.Close()
				_ = ps.spill.Close()
			}
			switch {
			case tt.want == "" && err != nil:
				t.Fatal(err)
			case tt.want == "" && (ps.cfg.StartRound != 1 || ps.srv.Dim() != 4):
				t.Fatalf("resumed at round %d with a %d-dim model, want 1 and 4", ps.cfg.StartRound, ps.srv.Dim())
			case tt.want != "" && (err == nil || !strings.Contains(err.Error(), tt.want)):
				t.Fatalf("err = %v, want it to mention %q", err, tt.want)
			}
		})
	}
}

// TestPSCheckpointDimensionMismatch: a checkpoint whose model does not
// have the clients' dimension is rejected once the hellos are in, by
// name, before any round measures uploads against it.
func TestPSCheckpointDimensionMismatch(t *testing.T) {
	cfg := asyncCheckpoint(t, []float64{1, 2, 3, 4}, true)
	ps, err := NewPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- ps.Serve() }()
	conn, err := dialPS(&ClientConfig{ID: 0, Seed: 1, Timeout: 5 * time.Second, DialAttempts: 1}, 0, ps.Addr(), []float64{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := <-served; err == nil || !strings.Contains(err.Error(), cfg.CheckpointPath) {
		t.Fatalf("Serve = %v, want a dimension error naming %s", err, cfg.CheckpointPath)
	}
}

// TestClientAsyncConfigValidation is the client-side counterpart.
func TestClientAsyncConfigValidation(t *testing.T) {
	base := func() ClientConfig {
		return ClientConfig{
			ID: 0, Learner: makeLearners(t, 1, 9)[0], Servers: []string{"127.0.0.1:1"},
			Rounds: 1, Filter: aggregate.Mean{}, Schedule: nn.ConstantLR(0.1),
			Async: true, Window: time.Second, Staleness: 2,
		}
	}
	tests := []struct {
		name   string
		mutate func(*ClientConfig)
	}{
		{"window without async", func(c *ClientConfig) { c.Async = false; c.Staleness = 0 }},
		{"staleness without async", func(c *ClientConfig) { c.Async = false; c.Window = 0 }},
		{"latency scale without async", func(c *ClientConfig) { c.Async = false; c.Window = 0; c.Staleness = 0; c.LatencyScale = time.Second }},
		{"negative window", func(c *ClientConfig) { c.Window = -time.Second }},
		{"negative staleness", func(c *ClientConfig) { c.Staleness = -1 }},
		{"negative latency scale", func(c *ClientConfig) { c.LatencyScale = -time.Second }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			tt.mutate(&cfg)
			if _, err := RunClient(cfg); err == nil {
				t.Fatal("expected config error")
			}
		})
	}
}
