package experiments

import (
	"testing"

	"fedms"
)

func repeatCfg() fedms.Config {
	return fedms.Config{
		Clients:      10,
		Servers:      5,
		NumByzantine: 1,
		Rounds:       6,
		LocalSteps:   2,
		BatchSize:    16,
		FilterRule:   "trim:0.2",
		Attack:       fedms.NoiseAttack{},
		LearningRate: 0.2,
		Dataset:      fedms.DatasetSpec{Samples: 1500, Features: 16, NumClasses: 4},
		Model:        fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{16}},
		EvalEvery:    3,
	}
}

func TestRepeatedAggregates(t *testing.T) {
	res, err := Repeated(repeatCfg(), []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finals) != 3 {
		t.Fatalf("finals = %v", res.Finals)
	}
	if len(res.Mean) != len(res.Rounds) || len(res.Std) != len(res.Rounds) {
		t.Fatal("curve lengths misaligned")
	}
	// Means lie within the per-seed envelope.
	for j := range res.Mean {
		if res.Std[j] < 0 {
			t.Fatal("negative std")
		}
	}
	lo, hi := res.Finals[0], res.Finals[0]
	for _, f := range res.Finals {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if m := res.FinalMean(); m < lo || m > hi {
		t.Fatalf("final mean %v outside envelope [%v,%v]", m, lo, hi)
	}
}

func TestRepeatedIdenticalSeedsZeroStd(t *testing.T) {
	res, err := Repeated(repeatCfg(), []uint64{7, 7})
	if err != nil {
		t.Fatal(err)
	}
	for j, s := range res.Std {
		if s != 0 {
			t.Fatalf("std[%d] = %v for identical seeds", j, s)
		}
	}
}

func TestRepeatedDifferentSeedsVary(t *testing.T) {
	res, err := Repeated(repeatCfg(), []uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	anyVar := false
	for _, s := range res.Std {
		if s > 0 {
			anyVar = true
		}
	}
	if !anyVar {
		t.Fatal("different seeds produced identical curves — seeding broken")
	}
}

func TestRepeatedValidation(t *testing.T) {
	if _, err := Repeated(repeatCfg(), nil); err == nil {
		t.Fatal("no seeds must error")
	}
	cfg := repeatCfg()
	cfg.EvalEvery = -1
	if _, err := Repeated(cfg, []uint64{1}); err == nil {
		t.Fatal("no evaluations must error")
	}
}

func TestFig2Stats(t *testing.T) {
	stats, err := Fig2Stats("random", 2, Options{Rounds: 6, Clients: 12, Servers: 5, Samples: 1500, EvalEvery: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("methods = %d", len(stats))
	}
	for _, m := range stats {
		if len(m.Result.Finals) != 2 {
			t.Fatalf("%s: %d finals", m.Name, len(m.Result.Finals))
		}
	}
	if _, err := Fig2Stats("bogus", 2, Options{}); err == nil {
		t.Fatal("unknown attack must error")
	}
}
