package fedms

import (
	"os"
	"strings"
	"testing"
	"time"

	"fedms/internal/aggregate"
)

// quickCfg is a fast end-to-end configuration for API tests.
func quickCfg() Config {
	return Config{
		Clients:      10,
		Servers:      5,
		NumByzantine: 1,
		Rounds:       8,
		LocalSteps:   2,
		BatchSize:    16,
		LearningRate: 0.2,
		Dataset:      DatasetSpec{Samples: 1500, Features: 16, NumClasses: 4},
		Model:        ModelSpec{Kind: ModelMLP, Hidden: []int{16}},
		Seed:         1,
		EvalEvery:    4,
	}
}

func TestRunEndToEnd(t *testing.T) {
	res, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 8 {
		t.Fatalf("rounds = %d", len(res.Stats))
	}
	if res.Accuracy.Len() == 0 {
		t.Fatal("no evaluations recorded")
	}
	if acc := res.FinalAccuracy(); acc < 0.5 {
		t.Fatalf("final accuracy %.2f too low for a clean-ish run", acc)
	}
	if res.TrainLoss.Len() != 8 {
		t.Fatalf("train loss points = %d", res.TrainLoss.Len())
	}
}

// TestRunClosesAsyncSpill: an async run whose spill overflowed to disk
// leaves no segment behind once Run returns.
func TestRunClosesAsyncSpill(t *testing.T) {
	cfg := quickCfg()
	cfg.Async, cfg.Window, cfg.Staleness = true, 100*time.Millisecond, 3
	cfg.SpillMem, cfg.SpillDir = 1, t.TempDir()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spilled := false
	for _, st := range res.Stats {
		spilled = spilled || st.SpillDepth > 0
	}
	if !spilled {
		t.Fatal("no round spilled: the run never wrote a segment")
	}
	if left, err := os.ReadDir(cfg.SpillDir); err != nil || len(left) != 0 {
		t.Fatalf("spill dir after Run: %v %v", left, err)
	}
}

func TestRunDefaultsFilterToTrimBOverP(t *testing.T) {
	cfg := quickCfg()
	eng, err := BuildEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	filter, ok := eng.Config().Filter.(aggregate.TrimmedMean)
	if !ok {
		t.Fatalf("filter = %T, want TrimmedMean", eng.Config().Filter)
	}
	if filter.Beta != 0.2 { // B/P = 1/5
		t.Fatalf("default beta = %v, want 0.2", filter.Beta)
	}
}

// TestResolveDefaultFilterCountsPinnedByzantineIDs: pinning the
// Byzantine servers by id sets B as NumByzantine does, so the default
// trim rate is the same B/P either way.
func TestResolveDefaultFilterCountsPinnedByzantineIDs(t *testing.T) {
	for name, cfg := range map[string]Config{
		"counted": {Servers: 10, NumByzantine: 2},
		"pinned":  {Servers: 10, ByzantineIDs: []int{3, 7}},
	} {
		ecfg, err := Resolve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ecfg.NumByzantine != 2 || ecfg.Filter != (aggregate.TrimmedMean{Beta: 0.2}) {
			t.Errorf("%s: B = %d, filter %s; want 2 and trim 0.2", name, ecfg.NumByzantine, ecfg.Filter.Name())
		}
	}
}

func TestRunVanillaFilter(t *testing.T) {
	cfg := quickCfg()
	cfg.FilterRule = "mean"
	eng, err := BuildEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Config().Filter.(aggregate.Mean); !ok {
		t.Fatalf("filter = %T, want Mean", eng.Config().Filter)
	}
}

func TestRunCustomFilter(t *testing.T) {
	cfg := quickCfg()
	cfg.FilterRule = "median"
	eng, err := BuildEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Config().Filter.(aggregate.CoordinateMedian); !ok {
		t.Fatalf("filter = %T, want CoordinateMedian", eng.Config().Filter)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	a, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Stats {
		if a.Stats[i].TrainLoss != b.Stats[i].TrainLoss || a.Stats[i].TestAcc != b.Stats[i].TestAcc {
			t.Fatalf("round %d diverged", i)
		}
	}
}

func TestRunSynthImageSmallCNN(t *testing.T) {
	cfg := Config{
		Clients:      4,
		Servers:      3,
		NumByzantine: 1,
		Rounds:       3,
		LocalSteps:   1,
		BatchSize:    8,
		LearningRate: 0.05,
		Attack:       NoiseAttack{},
		Dataset: DatasetSpec{
			Kind: DatasetSynthImage, Samples: 240, NumClasses: 4, Resolution: 8,
		},
		Model:     ModelSpec{Kind: ModelSmallCNN},
		Seed:      2,
		EvalEvery: 3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 3 {
		t.Fatalf("rounds = %d", len(res.Stats))
	}
}

func TestRunMobileNetV2Smoke(t *testing.T) {
	cfg := Config{
		Clients:      3,
		Servers:      3,
		NumByzantine: 1,
		Rounds:       2,
		LocalSteps:   1,
		BatchSize:    4,
		LearningRate: 0.01,
		Attack:       BackwardAttack{},
		Dataset: DatasetSpec{
			Kind: DatasetSynthImage, Samples: 120, NumClasses: 4, Resolution: 16,
		},
		Model:     ModelSpec{Kind: ModelMobileNetV2, WidthMult: 0.1},
		Seed:      3,
		EvalEvery: -1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 2 {
		t.Fatalf("rounds = %d", len(res.Stats))
	}
}

func TestBuildEngineRejectsBadSpecs(t *testing.T) {
	bad := quickCfg()
	bad.Dataset.Kind = "bogus"
	if _, err := BuildEngine(bad); err == nil {
		t.Fatal("expected unknown-dataset error")
	}

	bad = quickCfg()
	bad.Model.Kind = "bogus"
	if _, err := BuildEngine(bad); err == nil {
		t.Fatal("expected unknown-model error")
	}

	bad = quickCfg()
	bad.Model.Kind = ModelSmallCNN // requires synthimage
	if _, err := BuildEngine(bad); err == nil {
		t.Fatal("expected model/dataset mismatch error")
	}

	bad = quickCfg()
	bad.NumByzantine = 3 // not a minority of 5
	if _, err := BuildEngine(bad); err == nil {
		t.Fatal("expected Byzantine-majority error")
	}
}

func TestDirichletPartitionPath(t *testing.T) {
	cfg := quickCfg()
	cfg.Dataset.Alpha = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != cfg.Rounds {
		t.Fatalf("rounds = %d", len(res.Stats))
	}
}

func TestFinalAccuracyPanicsWithoutEvals(t *testing.T) {
	cfg := quickCfg()
	cfg.EvalEvery = -1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	res.FinalAccuracy()
}

func TestCIFAR10DatasetKindWiring(t *testing.T) {
	// Without real data on disk the loader must surface a clear error
	// (the path is exercised end-to-end in internal/data with fake
	// binary batches).
	cfg := quickCfg()
	cfg.Dataset = DatasetSpec{Kind: DatasetCIFAR10, Dir: t.TempDir()}
	if _, err := BuildEngine(cfg); err == nil {
		t.Fatal("missing CIFAR-10 directory must error")
	}
}

func TestPartialParticipationAPI(t *testing.T) {
	cfg := quickCfg()
	cfg.Participation = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Half the clients upload each round.
	d := res.Engine.Dim()
	if res.Stats[0].UploadFloats != 5*d {
		t.Fatalf("upload floats %d, want 5*d = %d", res.Stats[0].UploadFloats, 5*d)
	}
}

func TestTwoSidedAPI(t *testing.T) {
	cfg := quickCfg()
	cfg.Upload = FullUpload
	cfg.NumByzantineClients = 2
	cfg.ClientAttack = UploadRandom{}
	cfg.ServerRule = "trim:0.2"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.FinalAccuracy(); acc < 0.5 {
		t.Fatalf("two-sided run accuracy %.2f", acc)
	}
}

func TestWriteReport(t *testing.T) {
	res, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"K=10 clients", "P=5 servers", "accuracy:", "final train loss"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteReportNoEvals(t *testing.T) {
	cfg := quickCfg()
	cfg.EvalEvery = -1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no evaluations") {
		t.Fatalf("report should note missing evaluations:\n%s", sb.String())
	}
}
