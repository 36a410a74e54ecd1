package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestBenchQuickFig2SinglePanel(t *testing.T) {
	if err := run([]string{"-exp", "fig2", "-attack", "random", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestBenchQuickFig4(t *testing.T) {
	if err := run([]string{"-exp", "fig4", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestBenchQuickCommCost(t *testing.T) {
	if err := run([]string{"-exp", "commcost", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestBenchQuickTable2(t *testing.T) {
	if err := run([]string{"-exp", "table2", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestBenchCSVOutput(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "fig2", "-attack", "noise", "-quick", "-csvdir", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig2_noise.csv")); err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
}

func TestBenchPlotFlag(t *testing.T) {
	if err := run([]string{"-exp", "fig2", "-attack", "backward", "-quick", "-plot"}); err != nil {
		t.Fatal(err)
	}
}

// TestBenchScaleWritesCurve pins scale_curve.json's own schema and
// that the quick pass measures every point plus the distributed smoke
// round.
func TestBenchScaleWritesCurve(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scale_curve.json")
	if err := run([]string{"-exp", "scale", "-quick", "-scaleout", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var curve scaleCurve
	if err := json.Unmarshal(data, &curve); err != nil {
		t.Fatalf("scale_curve.json is not valid JSON: %v", err)
	}
	if curve.Schema != "fedms-bench/scale/v1" || len(curve.Points) == 0 || curve.Smoke == nil {
		t.Fatalf("degenerate curve: %+v", curve)
	}
	for _, p := range append(curve.Points, *curve.Smoke) {
		if p.Iters <= 0 || p.NsPerOp <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
	}
}

func TestBenchStragglerWritesCurve(t *testing.T) {
	path := filepath.Join(t.TempDir(), "straggler_curve.json")
	if err := run([]string{"-exp", "straggler", "-quick", "-stragglerout", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var curve stragglerCurve
	if err := json.Unmarshal(data, &curve); err != nil {
		t.Fatalf("straggler_curve.json is not valid JSON: %v", err)
	}
	if curve.Schema != "fedms-bench/straggler/v1" || len(curve.Points) == 0 {
		t.Fatalf("degenerate curve: %+v", curve)
	}
	for _, p := range curve.Points {
		if p.SyncNs <= 0 || p.AsyncNs <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
		// The async round may add at most one window plus the
		// dissemination tail on top of nothing — it must never track the
		// straggler the way the sync barrier does.
		if p.Slowdown >= 10 && p.AsyncNs >= p.SyncNs {
			t.Fatalf("slowdown %.0fx: async %v >= sync %v, async round is not bounded by the window",
				p.Slowdown, p.AsyncNs, p.SyncNs)
		}
		if p.Slowdown >= 10 && p.Late == 0 {
			t.Fatalf("slowdown %.0fx: straggler uploads not counted late: %+v", p.Slowdown, p)
		}
	}
	// Sync tracks the straggler: the last (largest) slowdown must cost
	// strictly more than the first.
	first, last := curve.Points[0], curve.Points[len(curve.Points)-1]
	if last.SyncNs <= first.SyncNs {
		t.Fatalf("sync round time did not grow with the straggler: %+v -> %+v", first, last)
	}
	// Async stays put: once the straggler misses the window the round
	// time is window + dissemination tail, identical no matter how slow
	// the straggler gets.
	if last.AsyncNs > 2*curve.WindowNs {
		t.Fatalf("async round %v exceeds window %v plus a dissemination tail", last.AsyncNs, curve.WindowNs)
	}
	var capped []float64
	for _, p := range curve.Points {
		if p.Slowdown >= 10 {
			capped = append(capped, p.AsyncNs)
		}
	}
	for _, ns := range capped {
		if ns != capped[0] {
			t.Fatalf("async round time varies past the window cap: %v", capped)
		}
	}
}

func TestBenchRejectsUnknownExperiment(t *testing.T) {
	// perf pins that kernel timings stay testing.B benchmarks in their
	// own packages, not an experiment.
	for _, exp := range []string{"nonsense", "perf"} {
		if err := run([]string{"-exp", exp}); err == nil {
			t.Fatalf("-exp %s: unknown experiment must error", exp)
		}
	}
}

func TestBenchRejectsUnknownAttack(t *testing.T) {
	if err := run([]string{"-exp", "fig2", "-attack", "nonsense", "-quick"}); err == nil {
		t.Fatal("unknown attack must error")
	}
}
