package fedms

import (
	"math"
	"strings"
	"testing"
)

func TestBuildEngineRejectsBadRuleSpecs(t *testing.T) {
	bad := quickCfg()
	bad.FilterRule = "bogus"
	if _, err := BuildEngine(bad); err == nil || !strings.Contains(err.Error(), "FilterRule") {
		t.Fatalf("bad FilterRule: %v", err)
	}

	bad = quickCfg()
	bad.FilterRule = "trim:0.8"
	if _, err := BuildEngine(bad); err == nil {
		t.Fatal("expected out-of-range trim error")
	}

	bad = quickCfg()
	bad.ServerRule = "nope"
	if _, err := BuildEngine(bad); err == nil || !strings.Contains(err.Error(), "ServerRule") {
		t.Fatalf("bad ServerRule: %v", err)
	}
}

func TestRunLossRuleEndToEnd(t *testing.T) {
	// Selecting a loss rule by spec must auto-build the holdout oracle
	// and train end to end, deterministically.
	cfg := quickCfg()
	cfg.FilterRule = "fedgreed"
	cfg.Attack = NoiseAttack{Sigma: 1}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := a.FinalAccuracy(); acc <= 0.25 {
		t.Fatalf("fedgreed run stuck at accuracy %v", acc)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAccuracy() != b.FinalAccuracy() {
		t.Fatalf("loss-rule runs differ across identical configs: %v vs %v",
			a.FinalAccuracy(), b.FinalAccuracy())
	}
}

func TestNewHoldoutOracleContract(t *testing.T) {
	cfg := quickCfg()
	eval, err := NewHoldoutOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := BuildEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := eng.Learners()[0].Params()
	snap := append([]float64(nil), model...)

	l1 := eval(model)
	l2 := eval(model)
	if math.IsNaN(l1) || math.IsInf(l1, 0) {
		t.Fatalf("holdout loss = %v", l1)
	}
	// Deterministic: the same model scores identically on repeat calls.
	if l1 != l2 {
		t.Fatalf("oracle not deterministic: %v vs %v", l1, l2)
	}
	// Pure: scoring must not perturb the candidate.
	for i := range model {
		if model[i] != snap[i] {
			t.Fatal("oracle mutated the candidate model")
		}
	}
	// And two oracles from the same config agree bit-for-bit — the
	// property that lets every distributed node rebuild "the same"
	// oracle from Seed alone.
	eval2, err := NewHoldoutOracle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l3 := eval2(model); l3 != l1 {
		t.Fatalf("independently built oracles disagree: %v vs %v", l3, l1)
	}
}
