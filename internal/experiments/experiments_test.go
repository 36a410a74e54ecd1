package experiments

import (
	"strings"
	"testing"

	"fedms"
)

// quick shrinks every experiment to smoke-test scale.
func quick() Options {
	return Options{Rounds: 6, Clients: 15, Servers: 5, Samples: 2000, EvalEvery: 3, Seed: 1}
}

func TestFig2ProducesThreeCurves(t *testing.T) {
	tbl, err := Fig2("random", quick())
	if err != nil {
		t.Fatal(err)
	}
	series := tbl.Series()
	if len(series) != 3 {
		t.Fatalf("Fig2 curves = %d, want 3", len(series))
	}
	names := []string{"fedms(b=0.2)", "fedms-(b=0.1)", "vanilla"}
	for i, s := range series {
		if s.Name != names[i] {
			t.Fatalf("curve %d = %q, want %q", i, s.Name, names[i])
		}
		if s.Len() == 0 {
			t.Fatalf("curve %q is empty", s.Name)
		}
		if v := s.Final(); v < 0 || v > 1 {
			t.Fatalf("curve %q final accuracy %v out of [0,1]", s.Name, v)
		}
	}
}

func TestFig2RejectsUnknownAttack(t *testing.T) {
	if _, err := Fig2("bogus", quick()); err == nil {
		t.Fatal("expected unknown-attack error")
	}
}

func TestFig2RandomAttackOrdering(t *testing.T) {
	// The defining shape of the paper's Fig 2(b): Fed-MS above Vanilla
	// under the Random attack.
	o := quick()
	o.Rounds = 10
	tbl, err := Fig2("random", o)
	if err != nil {
		t.Fatal(err)
	}
	series := tbl.Series()
	fedms, vanilla := series[0].Final(), series[2].Final()
	if fedms <= vanilla {
		t.Fatalf("Fed-MS (%.3f) not above Vanilla (%.3f) under random attack", fedms, vanilla)
	}
}

func TestFig3EpsilonRange(t *testing.T) {
	if _, err := Fig3(-1, quick()); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := Fig3(90, quick()); err == nil {
		t.Fatal("expected range error")
	}
	tbl, err := Fig3(20, quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series()) != 2 {
		t.Fatalf("Fig3 curves = %d, want 2", len(tbl.Series()))
	}
}

func TestFig3ZeroEpsilonParity(t *testing.T) {
	// With no Byzantine servers both methods should reach similar
	// accuracy (the paper's Fig 3(a)).
	tbl, err := Fig3(0, quick())
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Series()
	a, b := s[0].Final(), s[1].Final()
	if diff := a - b; diff > 0.15 || diff < -0.15 {
		t.Fatalf("eps=0: Fed-MS %.3f vs Vanilla %.3f differ too much", a, b)
	}
}

func TestFig4HistogramsValid(t *testing.T) {
	hists, err := Fig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{1, 5, 10, 1000} {
		hist, ok := hists[alpha]
		if !ok {
			t.Fatalf("missing alpha %g", alpha)
		}
		if len(hist) == 0 || len(hist) > 10 {
			t.Fatalf("alpha %g: %d clients reported", alpha, len(hist))
		}
		for _, row := range hist {
			if len(row) != 10 {
				t.Fatalf("alpha %g: row has %d classes", alpha, len(row))
			}
		}
	}
}

func TestWriteFig4(t *testing.T) {
	hists, err := Fig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFig4(&sb, hists); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "D_alpha=1000") || !strings.Contains(out, "client") {
		t.Fatalf("Fig4 rendering missing content:\n%s", out)
	}
}

func TestFig5CurveCount(t *testing.T) {
	tbl, err := Fig5(quick())
	if err != nil {
		t.Fatal(err)
	}
	// 4 Fed-MS heterogeneity levels + 2 vanilla references.
	if len(tbl.Series()) != 6 {
		t.Fatalf("Fig5 curves = %d, want 6", len(tbl.Series()))
	}
}

func TestTheorem1Decreasing(t *testing.T) {
	results, err := Theorem1(0, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("horizons = %d", len(results))
	}
	first, last := results[0], results[len(results)-1]
	if last.Suboptimality >= first.Suboptimality {
		t.Fatalf("suboptimality did not decrease: %v -> %v",
			first.Suboptimality, last.Suboptimality)
	}
	// O(1/T): T·subopt should not blow up between the first and last
	// horizon (allow 3x slack for constants settling).
	if last.TimesT > 3*first.TimesT+1 {
		t.Fatalf("T*subopt grew: %v -> %v", first.TimesT, last.TimesT)
	}
}

func TestCommCostRatioIsP(t *testing.T) {
	o := quick()
	res, err := CommCost(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio != float64(o.Servers) {
		t.Fatalf("full/sparse ratio = %v, want P = %d", res.Ratio, o.Servers)
	}
	if res.SparseFloats != o.Clients*res.Dim {
		t.Fatalf("sparse floats = %d, want K*d = %d", res.SparseFloats, o.Clients*res.Dim)
	}
}

func TestFilterAblationIncludesAllRules(t *testing.T) {
	o := quick()
	o.Rounds = 4
	tbl, err := FilterAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series()) != 5 {
		t.Fatalf("ablation curves = %d, want 5", len(tbl.Series()))
	}
}

func TestUploadAblationBothStrategies(t *testing.T) {
	o := quick()
	o.Rounds = 4
	tbl, err := UploadAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series()) != 2 {
		t.Fatalf("upload ablation curves = %d", len(tbl.Series()))
	}
	if tbl.Series()[0].Name != "sparse" || tbl.Series()[1].Name != "full" {
		t.Fatalf("unexpected curve names %q %q", tbl.Series()[0].Name, tbl.Series()[1].Name)
	}
}

func TestTable2MentionsSettings(t *testing.T) {
	out := Table2(Options{})
	for _, want := range []string{"K = 50", "P = 10", "E = 3", "Noise, Random, Safeguard, Backward"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table2 missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Rounds != 60 || o.Clients != 50 || o.Servers != 10 || o.Samples != 10000 || o.EvalEvery != 5 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestTwoSidedAblation(t *testing.T) {
	o := quick()
	o.Rounds = 8
	tbl, err := TwoSidedAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Series()
	if len(s) != 3 {
		t.Fatalf("curves = %d, want 3", len(s))
	}
	// The robust server filter must beat plain averaging under
	// Byzantine-client random uploads.
	mean, trimmed := s[0].Final(), s[1].Final()
	if trimmed <= mean {
		t.Fatalf("trimmed servers (%.3f) not above mean servers (%.3f)", trimmed, mean)
	}
}

func TestColludingAblation(t *testing.T) {
	o := quick()
	o.Rounds = 4
	tbl, err := ColludingAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series()) != 6 {
		t.Fatalf("curves = %d, want 6", len(tbl.Series()))
	}
}

func TestRoundTimes(t *testing.T) {
	res, err := RoundTimes(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelBytes <= 0 {
		t.Fatal("model bytes not set")
	}
	if res.Full <= res.Sparse {
		t.Fatalf("full round (%v) should be slower than sparse (%v)", res.Full, res.Sparse)
	}
	if res.Ratio <= 1 {
		t.Fatalf("ratio = %v", res.Ratio)
	}
}

func TestUploadStrategiesComparable(t *testing.T) {
	// Both upload strategies should train to similar accuracy in a clean
	// run — full upload sees every model, sparse one per client.
	accs := map[string]float64{}
	for _, up := range []fedms.UploadStrategy{fedms.SparseUpload, fedms.FullUpload} {
		cfg := baseConfig(quick(), 10)
		cfg.Rounds = 10
		cfg.FilterRule = "trim:0.2"
		cfg.Upload = up
		res, err := fedms.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		accs[up.String()] = res.FinalAccuracy()
	}
	for name, acc := range accs {
		if acc < 0.6 {
			t.Fatalf("%s upload accuracy %.2f", name, acc)
		}
	}
}
