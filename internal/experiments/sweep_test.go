package experiments

import (
	"strings"
	"testing"

	"fedms"
)

func sweepBase() fedms.Config {
	cfg := repeatCfg()
	cfg.Seed = 3
	return cfg
}

func TestSweepCartesianProduct(t *testing.T) {
	axes := []Axis{
		{Name: "lr", Values: []AxisValue{
			{Label: "0.1", Apply: func(c *fedms.Config) { c.LearningRate = 0.1 }},
			{Label: "0.3", Apply: func(c *fedms.Config) { c.LearningRate = 0.3 }},
		}},
		{Name: "beta", Values: []AxisValue{
			{Label: "0.2", Apply: func(c *fedms.Config) { c.FilterRule = "trim:0.2" }},
			{Label: "mean", Apply: func(c *fedms.Config) { c.FilterRule = "mean" }},
			{Label: "median", Apply: func(c *fedms.Config) { c.FilterRule = "median" }},
		}},
	}
	res, err := Sweep(sweepBase(), axes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(res.Cells))
	}
	if _, ok := res.Lookup("0.3", "median"); !ok {
		t.Fatal("Lookup failed for existing cell")
	}
	if _, ok := res.Lookup("0.5", "median"); ok {
		t.Fatal("Lookup found a nonexistent cell")
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Sweep(sweepBase(), nil); err == nil {
		t.Fatal("no axes must error")
	}
	if _, err := Sweep(sweepBase(), []Axis{{Name: "x"}}); err == nil {
		t.Fatal("empty axis must error")
	}
}

func TestWriteMatrix(t *testing.T) {
	axes := []Axis{
		{Name: "a", Values: []AxisValue{
			{Label: "a1", Apply: func(c *fedms.Config) {}},
		}},
		{Name: "b", Values: []AxisValue{
			{Label: "b1", Apply: func(c *fedms.Config) {}},
			{Label: "b2", Apply: func(c *fedms.Config) { c.LearningRate = 0.05 }},
		}},
	}
	res, err := Sweep(sweepBase(), axes)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteMatrix(&sb, "demo"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "a1", "b1", "b2", `a\b`} {
		if !strings.Contains(out, want) {
			t.Fatalf("matrix missing %q:\n%s", want, out)
		}
	}
	// Three-axis result must be rejected by the matrix renderer.
	res3 := &SweepResult{AxisNames: []string{"x", "y", "z"}}
	if err := res3.WriteMatrix(&sb, ""); err == nil {
		t.Fatal("3-axis matrix must error")
	}
}

func TestBetaEpsilonSweepShape(t *testing.T) {
	o := quick()
	o.Rounds = 8
	o.Servers = 10 // need 10 servers so eps=10% means B=1
	o.Clients = 20
	res, err := BetaEpsilonSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 16 {
		t.Fatalf("cells = %d, want 16", len(res.Cells))
	}
	// The design rule: at eps=20%, beta=0.3 >= eps survives while
	// beta=0.1 < eps collapses.
	strong, ok1 := res.Lookup("b=0.3", "eps=20%")
	weak, ok2 := res.Lookup("b=0.1", "eps=20%")
	if !ok1 || !ok2 {
		t.Fatal("missing sweep cells")
	}
	if strong.FinalAcc <= weak.FinalAcc {
		t.Fatalf("beta>=eps (%.3f) should beat beta<eps (%.3f)", strong.FinalAcc, weak.FinalAcc)
	}
}
