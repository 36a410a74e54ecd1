package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/data"
	"fedms/internal/nn"
	"fedms/internal/randx"
	"fedms/internal/tensor"
)

// testFixture builds a small Blobs + logistic-regression federation.
func testFixture(t *testing.T, k int, seed uint64) ([]Learner, *data.Dataset) {
	t.Helper()
	const features = 16
	ds := data.Blobs(data.BlobsConfig{Samples: 1200, Features: features, NumClasses: 4, Seed: seed})
	train, test := ds.Split(0.8)
	parts := data.IIDPartition(train.Len(), k, seed)
	learners := make([]Learner, k)
	for i := 0; i < k; i++ {
		learners[i] = NewNNLearner(NNLearnerConfig{
			Net:       nn.NewMLP(nn.MLPConfig{In: features, NumClasses: 4, Seed: seed}),
			Train:     train.Subset(parts[i]),
			Test:      test,
			BatchSize: 16,
			Seed:      randx.Derive(seed, fmt.Sprintf("client/%d", i)),
		})
	}
	return learners, test
}

func baseConfig(k, p, b int, atk attack.Attack, filter aggregate.Rule) Config {
	return Config{
		Clients:      k,
		Servers:      p,
		NumByzantine: b,
		Rounds:       15,
		LocalSteps:   2,
		Attack:       atk,
		Filter:       filter,
		Schedule:     nn.ConstantLR(0.3),
		Seed:         42,
		EvalEvery:    5,
	}
}

func finalAcc(stats []RoundStats) float64 {
	for i := len(stats) - 1; i >= 0; i-- {
		if stats[i].Evaluated {
			return stats[i].TestAcc
		}
	}
	return math.NaN()
}

func TestConfigValidation(t *testing.T) {
	valid := baseConfig(10, 5, 2, attack.None{}, aggregate.Mean{})
	if _, err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero clients", func(c *Config) { c.Clients = 0 }},
		{"zero servers", func(c *Config) { c.Servers = 0 }},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"zero local steps", func(c *Config) { c.LocalSteps = 0 }},
		{"nil filter", func(c *Config) { c.Filter = nil }},
		{"nil schedule", func(c *Config) { c.Schedule = nil }},
		{"byzantine majority", func(c *Config) { c.NumByzantine = 3 }},
		{"byzantine exactly half", func(c *Config) { c.Servers = 4; c.NumByzantine = 2 }},
		{"byzantine id out of range", func(c *Config) { c.ByzantineIDs = []int{5} }},
		{"duplicate byzantine ids", func(c *Config) { c.ByzantineIDs = []int{1, 1} }},
		{"filter trim rate one half", func(c *Config) { c.Filter = aggregate.TrimmedMean{Beta: 0.5} }},
		{"negative filter trim rate", func(c *Config) { c.Filter = aggregate.TrimmedMean{Beta: -0.1} }},
		{"no-fuse filter trim rate", func(c *Config) { c.Filter = aggregate.NoFuse{Rule: aggregate.TrimmedMean{Beta: 0.7}} }},
		{"server filter trim rate", func(c *Config) { c.ServerFilter = aggregate.TrimmedMean{Beta: 0.7} }},
		{"no-fuse server filter trim rate", func(c *Config) { c.ServerFilter = aggregate.NoFuse{Rule: aggregate.TrimmedMean{Beta: 0.5}} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := baseConfig(10, 5, 2, attack.None{}, aggregate.Mean{})
			tt.mutate(&c)
			if _, err := c.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

// TestConfigRejectsNaNParticipation: a NaN fraction is out of range,
// said so by the range check itself — not left to int(NaN·K), whose
// value Go leaves to the implementation.
func TestConfigRejectsNaNParticipation(t *testing.T) {
	c := baseConfig(10, 5, 2, attack.None{}, aggregate.Mean{})
	c.Participation = math.NaN()
	var fe *FieldError
	if _, err := c.Validate(); !errors.As(err, &fe) || fe.Field != "Participation" || !strings.Contains(err.Error(), "must be in (0,1]") {
		t.Fatalf("NaN Participation: got %v, want the (0,1] range rejection", err)
	}
}

// TestConfigRejectsInfeasibleTrimRate: a trimmed mean whose rate
// leaves no values is rejected under the field that holds it, before
// TrimCount can panic in a round; an explicit Trim overrides the rate
// and is not the rate's to reject.
func TestConfigRejectsInfeasibleTrimRate(t *testing.T) {
	c := baseConfig(10, 5, 2, attack.None{}, aggregate.TrimmedMean{Beta: 0.7})
	var fe *FieldError
	if _, err := c.Validate(); !errors.As(err, &fe) || fe.Field != "Filter" {
		t.Fatalf("Filter trim rate 0.7: got %v, want a FieldError on Filter", err)
	}
	c = baseConfig(10, 5, 2, attack.None{}, aggregate.Mean{})
	c.ServerFilter = aggregate.NoFuse{Rule: aggregate.TrimmedMean{Beta: 0.7}}
	if _, err := c.Validate(); !errors.As(err, &fe) || fe.Field != "ServerFilter" {
		t.Fatalf("ServerFilter trim rate 0.7: got %v, want a FieldError on ServerFilter", err)
	}
	c.ServerFilter = aggregate.TrimmedMean{Beta: 0.7, Trim: 1}
	if _, err := c.Validate(); err != nil {
		t.Fatalf("explicit Trim rejected: %v", err)
	}
}

func TestConfigDerivesByzantineIDs(t *testing.T) {
	c, err := baseConfig(10, 5, 2, attack.None{}, aggregate.Mean{}).Validate()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ByzantineIDs) != 2 {
		t.Fatalf("ByzantineIDs = %v", c.ByzantineIDs)
	}
	c2, _ := baseConfig(10, 5, 2, attack.None{}, aggregate.Mean{}).Validate()
	for i := range c.ByzantineIDs {
		if c.ByzantineIDs[i] != c2.ByzantineIDs[i] {
			t.Fatal("Byzantine ids must be seed-deterministic")
		}
	}
	if !c.IsByzantine(c.ByzantineIDs[0]) || c.IsByzantine(99) {
		t.Fatal("IsByzantine inconsistent")
	}
}

func TestEngineRejectsMismatchedLearners(t *testing.T) {
	learners, _ := testFixture(t, 4, 1)
	cfg := baseConfig(5, 3, 1, attack.None{}, aggregate.Mean{})
	if _, err := NewEngine(cfg, learners); err == nil {
		t.Fatal("expected learner-count error")
	}
}

func TestEngineSharedInitialization(t *testing.T) {
	learners, _ := testFixture(t, 5, 2)
	// Perturb one learner pre-engine; NewEngine must re-align all to w0.
	p := learners[3].Params()
	for i := range p {
		p[i] += 100
	}
	learners[3].SetParams(p)
	eng, err := NewEngine(baseConfig(5, 3, 1, attack.None{}, aggregate.Mean{}), learners)
	if err != nil {
		t.Fatal(err)
	}
	w0 := learners[0].Params()
	for k, l := range eng.Learners() {
		lp := l.Params()
		for i := range w0 {
			if lp[i] != w0[i] {
				t.Fatalf("client %d not aligned to w0", k)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() []RoundStats {
		learners, _ := testFixture(t, 6, 3)
		cfg := baseConfig(6, 4, 1, attack.Noise{Sigma: 0.5}, aggregate.TrimmedMean{Beta: 0.25})
		cfg.Rounds = 6
		eng, err := NewEngine(cfg, learners)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Run()
	}
	a, b := run(), run()
	for i := range a {
		if a[i].TrainLoss != b[i].TrainLoss || a[i].TestAcc != b[i].TestAcc ||
			a[i].ModelSpread != b[i].ModelSpread {
			t.Fatalf("round %d diverged between identical runs", i)
		}
	}
}

func TestFedMSLearnsWithoutByzantine(t *testing.T) {
	learners, _ := testFixture(t, 8, 4)
	cfg := baseConfig(8, 4, 0, attack.None{}, aggregate.TrimmedMean{Beta: 0.25})
	cfg.Rounds = 20
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	stats := eng.Run()
	if acc := finalAcc(stats); acc < 0.8 {
		t.Fatalf("clean Fed-MS accuracy %.2f, want >= 0.8", acc)
	}
}

func TestFedMSSurvivesRandomAttackVanillaDoesNot(t *testing.T) {
	// The paper's headline result in miniature: under the Random attack,
	// the trimmed-mean filter preserves accuracy while plain averaging
	// collapses toward chance (25% here with 4 classes).
	runWith := func(filter aggregate.Rule) float64 {
		learners, _ := testFixture(t, 8, 5)
		cfg := baseConfig(8, 5, 1, attack.Random{}, filter)
		cfg.Rounds = 20
		eng, err := NewEngine(cfg, learners)
		if err != nil {
			t.Fatal(err)
		}
		return finalAcc(eng.Run())
	}
	fedms := runWith(aggregate.TrimmedMean{Beta: 0.2})
	vanilla := runWith(aggregate.Mean{})
	if fedms < 0.8 {
		t.Fatalf("Fed-MS under Random attack reached only %.2f", fedms)
	}
	// A 16-dim logistic model partially re-learns between corruptions, so
	// the collapse is softer than the deep-model case; the robust filter
	// must still open a clear gap.
	if vanilla > fedms-0.15 {
		t.Fatalf("vanilla FL (%.2f) not clearly below Fed-MS (%.2f) under Random attack", vanilla, fedms)
	}
}

func TestModelSpreadBoundedByFilter(t *testing.T) {
	learners, _ := testFixture(t, 8, 6)
	cfg := baseConfig(8, 5, 1, attack.Random{PerClient: true}, aggregate.TrimmedMean{Beta: 0.2})
	cfg.Rounds = 5
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	stats := eng.Run()

	learners2, _ := testFixture(t, 8, 6)
	cfg2 := baseConfig(8, 5, 1, attack.Random{PerClient: true}, aggregate.Mean{})
	cfg2.Rounds = 5
	eng2, err := NewEngine(cfg2, learners2)
	if err != nil {
		t.Fatal(err)
	}
	stats2 := eng2.Run()

	for i := range stats {
		if stats[i].ModelSpread > stats2[i].ModelSpread {
			t.Fatalf("round %d: trimmed spread %.3f exceeds mean spread %.3f",
				i, stats[i].ModelSpread, stats2[i].ModelSpread)
		}
	}
}

func TestSparseUploadAssignment(t *testing.T) {
	learners, _ := testFixture(t, 10, 7)
	cfg := baseConfig(10, 4, 0, attack.None{}, aggregate.Mean{})
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	assign := eng.uploadAssignment(0, eng.activeClients(0))
	seen := make([]int, 10)
	for _, members := range assign {
		for _, k := range members {
			seen[k]++
		}
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("client %d assigned %d times under sparse upload", k, c)
		}
	}
	// Different rounds should give different assignments.
	a1 := fmt.Sprint(eng.uploadAssignment(1, eng.activeClients(1)))
	a2 := fmt.Sprint(eng.uploadAssignment(2, eng.activeClients(2)))
	if a1 == a2 {
		t.Fatal("upload assignment identical across rounds")
	}
}

func TestFullUploadAssignment(t *testing.T) {
	learners, _ := testFixture(t, 6, 8)
	cfg := baseConfig(6, 3, 0, attack.None{}, aggregate.Mean{})
	cfg.Upload = FullUpload
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	assign := eng.uploadAssignment(0, eng.activeClients(0))
	for i, members := range assign {
		if len(members) != 6 {
			t.Fatalf("server %d received %d uploads under full upload", i, len(members))
		}
	}
}

func TestCommunicationAccounting(t *testing.T) {
	learners, _ := testFixture(t, 6, 9)
	d := learners[0].NumParams()

	cfg := baseConfig(6, 3, 0, attack.None{}, aggregate.Mean{})
	cfg.Rounds = 1
	eng, _ := NewEngine(cfg, learners)
	st := eng.RunRound()
	if st.UploadFloats != 6*d {
		t.Fatalf("sparse upload floats = %d, want K*d = %d", st.UploadFloats, 6*d)
	}

	learners2, _ := testFixture(t, 6, 9)
	cfg2 := baseConfig(6, 3, 0, attack.None{}, aggregate.Mean{})
	cfg2.Rounds = 1
	cfg2.Upload = FullUpload
	eng2, _ := NewEngine(cfg2, learners2)
	st2 := eng2.RunRound()
	if st2.UploadFloats != 6*3*d {
		t.Fatalf("full upload floats = %d, want K*P*d = %d", st2.UploadFloats, 6*3*d)
	}
	if st.DownloadFloats != st2.DownloadFloats {
		t.Fatal("dissemination cost should not depend on upload strategy")
	}
}

func TestEmptyServerReusesLastAggregate(t *testing.T) {
	// With P > K some servers must receive no uploads; the engine must
	// not crash and those servers re-disseminate their last aggregate.
	learners, _ := testFixture(t, 3, 10)
	cfg := baseConfig(3, 7, 0, attack.None{}, aggregate.Mean{})
	cfg.Rounds = 4
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	stats := eng.Run()
	if len(stats) != 4 {
		t.Fatalf("expected 4 rounds, got %d", len(stats))
	}
	for _, st := range stats {
		if st.UploadFloats != 3*eng.Dim() {
			t.Fatalf("upload floats %d, want %d", st.UploadFloats, 3*eng.Dim())
		}
	}
}

// TestLemma3Unbiasedness Monte-Carlo-checks Lemma 3: under sparse
// uploading, the expectation of the average server aggregate ā equals
// the average client model v̄.
func TestLemma3Unbiasedness(t *testing.T) {
	const k, p, d = 12, 4, 8
	r := randx.New(77)
	uploads := make([][]float64, k)
	for i := range uploads {
		uploads[i] = make([]float64, d)
		randx.Normal(r, uploads[i], 0, 1)
	}
	vbar := make([]float64, d)
	tensor.VecMean(vbar, uploads)

	learners, _ := testFixture(t, k, 11)
	cfg := baseConfig(k, p, 0, attack.None{}, aggregate.Mean{})
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}

	const trials = 3000
	abarMean := make([]float64, d)
	for trial := 0; trial < trials; trial++ {
		assign := eng.uploadAssignment(trial, eng.activeClients(trial))
		abar := make([]float64, d)
		for _, members := range assign {
			if len(members) == 0 {
				// Empty server: its aggregate equals its previous one;
				// for the unbiasedness check we model the paper's
				// idealization E(N_i) = K/P > 0 by re-drawing.
				tensor.VecAdd(abar, vbar)
				continue
			}
			agg := make([]float64, d)
			for _, kk := range members {
				tensor.VecAdd(agg, uploads[kk])
			}
			tensor.VecScale(agg, 1/float64(len(members)))
			tensor.VecAdd(abar, agg)
		}
		tensor.VecScale(abar, 1.0/float64(p))
		tensor.VecAdd(abarMean, abar)
	}
	tensor.VecScale(abarMean, 1.0/float64(trials))
	if dist := tensor.VecDist2(abarMean, vbar); dist > 0.05 {
		t.Fatalf("E[ā] deviates from v̄ by %v — sparse upload biased", dist)
	}
}

func TestEvaluateAveragesClients(t *testing.T) {
	learners, _ := testFixture(t, 4, 12)
	cfg := baseConfig(4, 3, 0, attack.None{}, aggregate.Mean{})
	cfg.EvalClients = 4
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	loss, acc := eng.Evaluate()
	if math.IsNaN(loss) || acc < 0 || acc > 1 {
		t.Fatalf("Evaluate returned loss=%v acc=%v", loss, acc)
	}
}

func TestMeanClientParamsMatchesManualAverage(t *testing.T) {
	learners, _ := testFixture(t, 3, 13)
	cfg := baseConfig(3, 3, 0, attack.None{}, aggregate.Mean{})
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRound()
	want := make([]float64, eng.Dim())
	vecs := make([][]float64, 0, 3)
	for _, l := range eng.Learners() {
		vecs = append(vecs, l.Params())
	}
	tensor.VecMean(want, vecs)
	got := eng.MeanClientParams()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatal("MeanClientParams mismatch")
		}
	}
}

func TestBackwardAttackHistoryFlow(t *testing.T) {
	// Ensure multi-round runs with the history-dependent attacks do not
	// panic and still learn with the filter on.
	for _, atk := range []attack.Attack{attack.Safeguard{}, attack.Backward{}} {
		learners, _ := testFixture(t, 8, 14)
		cfg := baseConfig(8, 5, 1, atk, aggregate.TrimmedMean{Beta: 0.2})
		cfg.Rounds = 12
		eng, err := NewEngine(cfg, learners)
		if err != nil {
			t.Fatal(err)
		}
		if acc := finalAcc(eng.Run()); acc < 0.6 {
			t.Fatalf("Fed-MS under %s reached only %.2f", atk.Name(), acc)
		}
	}
}

func TestEquivocatingAttackPerClientDiffers(t *testing.T) {
	learners, _ := testFixture(t, 5, 15)
	cfg := baseConfig(5, 3, 1, attack.Random{PerClient: true}, aggregate.TrimmedMean{Beta: 1.0 / 3.0})
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	aggs := make([][]float64, 3)
	for i, srv := range eng.servers {
		res, err := srv.Aggregate(nil) // round 0 re-sends w_0
		if err != nil {
			t.Fatal(err)
		}
		aggs[i] = res.Out
	}
	sets, setOf := eng.disseminate(0, aggs)
	byz := eng.Config().ByzantineIDs[0]
	a := sets[setOf[0]][byz]
	b := sets[setOf[1]][byz]
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("equivocating attack sent identical models to two clients")
	}
}

func TestPartialParticipation(t *testing.T) {
	learners, _ := testFixture(t, 10, 30)
	cfg := baseConfig(10, 3, 0, attack.None{}, aggregate.Mean{})
	cfg.Participation = 0.4
	cfg.Rounds = 1
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	active := eng.activeClients(0)
	if len(active) != 4 {
		t.Fatalf("active clients = %d, want 4", len(active))
	}
	for i := 1; i < len(active); i++ {
		if active[i] <= active[i-1] {
			t.Fatal("active ids must be sorted and unique")
		}
	}
	// Different rounds sample different subsets (with overwhelming
	// probability for these seeds).
	if fmt.Sprint(eng.activeClients(0)) == fmt.Sprint(eng.activeClients(1)) &&
		fmt.Sprint(eng.activeClients(1)) == fmt.Sprint(eng.activeClients(2)) {
		t.Fatal("participation subsets identical across three rounds")
	}
	st := eng.RunRound()
	if st.UploadFloats != 4*eng.Dim() {
		t.Fatalf("upload floats %d, want 4*d = %d", st.UploadFloats, 4*eng.Dim())
	}
}

func TestPartialParticipationStillLearns(t *testing.T) {
	learners, _ := testFixture(t, 10, 31)
	cfg := baseConfig(10, 3, 0, attack.None{}, aggregate.TrimmedMean{Beta: 0.2})
	cfg.Participation = 0.5
	cfg.Rounds = 25
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	if acc := finalAcc(eng.Run()); acc < 0.8 {
		t.Fatalf("partial participation accuracy %.2f", acc)
	}
}

func TestParticipationValidation(t *testing.T) {
	cfg := baseConfig(10, 3, 0, attack.None{}, aggregate.Mean{})
	cfg.Participation = 1.5
	if _, err := cfg.Validate(); err == nil {
		t.Fatal("participation > 1 must be rejected")
	}
	cfg.Participation = -0.1
	if _, err := cfg.Validate(); err == nil {
		t.Fatal("negative participation must be rejected")
	}
	cfg.Participation = 0.01 // activates zero of 10 clients
	if _, err := cfg.Validate(); err == nil {
		t.Fatal("participation that activates no client must be rejected")
	}
}

func TestEngineLogsRounds(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	learners, _ := testFixture(t, 4, 33)
	cfg := baseConfig(4, 3, 0, attack.None{}, aggregate.Mean{})
	cfg.Rounds = 3
	cfg.EvalEvery = 2
	cfg.Logger = logger
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	out := buf.String()
	if strings.Count(out, "fedms round") != 3 {
		t.Fatalf("expected 3 round records:\n%s", out)
	}
	if !strings.Contains(out, "test_acc") {
		t.Fatalf("evaluated round missing test_acc:\n%s", out)
	}
	if !strings.Contains(out, "model_spread") {
		t.Fatalf("missing model_spread:\n%s", out)
	}
}

func TestWorkerPoolDeterminism(t *testing.T) {
	// Results must be identical whether client training runs serially
	// or through the worker pool — ordering must never leak into the
	// model state.
	run := func(workers int) []float64 {
		learners, _ := testFixture(t, 8, 34)
		cfg := baseConfig(8, 4, 1, attack.Noise{}, aggregate.TrimmedMean{Beta: 0.25})
		cfg.Rounds = 4
		cfg.Workers = workers
		cfg.EvalEvery = -1
		eng, err := NewEngine(cfg, learners)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return eng.MeanClientParams()
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("param %d differs between serial and pooled training", i)
		}
	}
}

func TestEngineThreadsWorkersIntoFilter(t *testing.T) {
	// NewEngine must hand its one worker bound to every server and
	// every client filter, so their coordinate-parallel aggregation
	// shares the engine's knob.
	learners, _ := testFixture(t, 4, 35)
	cfg := baseConfig(4, 3, 0, attack.None{}, aggregate.TrimmedMean{Beta: 0.2})
	cfg.Workers = 3
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRound() // the filters are built by the first round
	for i, s := range eng.servers {
		if s.workers != 3 {
			t.Fatalf("server %d workers = %d, want 3", i, s.workers)
		}
	}
	if len(eng.filters) == 0 {
		t.Fatal("no filters after a round")
	}
	for i, f := range eng.filters {
		if f.workers != 3 {
			t.Fatalf("filter %d workers = %d, want 3", i, f.workers)
		}
	}
}

func TestRunRoundCountsAdvance(t *testing.T) {
	learners, _ := testFixture(t, 4, 35)
	cfg := baseConfig(4, 3, 0, attack.None{}, aggregate.Mean{})
	cfg.Rounds = 3
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	for want := 0; want < 3; want++ {
		st := eng.RunRound()
		if st.Round != want {
			t.Fatalf("round index %d, want %d", st.Round, want)
		}
	}
}

func TestEvaluationCadence(t *testing.T) {
	learners, _ := testFixture(t, 4, 36)
	cfg := baseConfig(4, 3, 0, attack.None{}, aggregate.Mean{})
	cfg.Rounds = 7
	cfg.EvalEvery = 3
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	stats := eng.Run()
	var evaluated []int
	for _, st := range stats {
		if st.Evaluated {
			evaluated = append(evaluated, st.Round)
		}
	}
	// Rounds 2, 5 (every 3rd) plus the final round 6.
	want := []int{2, 5, 6}
	if len(evaluated) != len(want) {
		t.Fatalf("evaluated rounds %v, want %v", evaluated, want)
	}
	for i := range want {
		if evaluated[i] != want[i] {
			t.Fatalf("evaluated rounds %v, want %v", evaluated, want)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	learners, _ := testFixture(t, 4, 37)
	cfg := baseConfig(4, 3, 0, attack.None{}, aggregate.Mean{})
	cfg.Rounds = 100
	cfg.EvalEvery = -1
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	// Run a prefix manually, then hand a cancelled context to
	// RunContext: it must stop immediately, leaving the remaining
	// rounds unrun.
	for i := 0; i < 5; i++ {
		eng.RunRound()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := eng.RunContext(ctx)
	if err == nil {
		t.Fatal("cancelled run must return ctx.Err()")
	}
	if len(stats) != 0 {
		t.Fatalf("cancelled context still ran %d rounds", len(stats))
	}
	// Resuming with a live context completes the remaining 95 rounds.
	rest, err := eng.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 95 {
		t.Fatalf("resumed %d rounds, want 95", len(rest))
	}
	if rest[0].Round != 5 {
		t.Fatalf("resume started at round %d", rest[0].Round)
	}
}

func TestRunContextCompletes(t *testing.T) {
	learners, _ := testFixture(t, 4, 38)
	cfg := baseConfig(4, 3, 0, attack.None{}, aggregate.Mean{})
	cfg.Rounds = 3
	cfg.EvalEvery = -1
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("rounds = %d", len(stats))
	}
}

// TestRunFinishesAfterManualRounds: Run after a RunRound prefix runs
// only the rounds left of cfg.Rounds, as RunContext does.
func TestRunFinishesAfterManualRounds(t *testing.T) {
	learners, _ := testFixture(t, 4, 39)
	cfg := baseConfig(4, 3, 0, attack.None{}, aggregate.Mean{})
	cfg.Rounds = 5
	cfg.EvalEvery = -1
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRound()
	eng.RunRound()
	var rounds []int
	for _, st := range eng.Run() {
		rounds = append(rounds, st.Round)
	}
	if fmt.Sprint(rounds) != "[2 3 4]" {
		t.Fatalf("Run after 2 manual rounds ran rounds %v, want [2 3 4]", rounds)
	}
	if more := eng.Run(); len(more) != 0 {
		t.Fatalf("Run on a finished engine ran %d more rounds", len(more))
	}
}
