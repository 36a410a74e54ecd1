package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickSmoke runs all four workloads at smoke size (d=2048, R=8,
// one timed and one traced repetition each): every verification check
// must pass, every catalogued metric must be reported, and the traces
// written must honour the trace contract.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four federations")
	}
	out := t.TempDir()
	if err := run([]string{"-quick", "-out", out}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res resultFile
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if res.Context.GoMaxProcs == 0 || res.Context.GoVersion == "" || res.Context.Seed != 1 {
		t.Fatalf("run context not recorded: %+v", res.Context)
	}
	for _, w := range workloads(true) {
		r := res.Workloads[w.Name]
		if r == nil {
			t.Fatalf("%s missing from result.json", w.Name)
		}
		if r.Rounds != 8 || r.Failed != 0 || r.Attempted == 0 || len(r.Checks) == 0 {
			t.Fatalf("%s: rounds=%d failed=%d attempted=%d checks=%d", w.Name, r.Rounds, r.Failed, r.Attempted, len(r.Checks))
		}
		for _, d := range endToEnd {
			if s, ok := r.EndToEnd[d.Name]; !ok || s.Median <= 0 || s.Unit != d.Unit {
				t.Errorf("%s: end-to-end %s = %+v", w.Name, d.Name, s)
			}
		}
		for _, d := range perLayer {
			s, ok := r.PerLayer[d.Name]
			if !ok || s.Unit != d.Unit {
				t.Errorf("%s: per-layer %s = %+v", w.Name, d.Name, s)
			}
			// A listed time must be measured on every workload (the
			// budget's remainder alone may dip below 0).
			if driverPerLayer[d.Name] && d.Unit == "s" && d.Name != "budget.unattributed_s" && s.Median <= 0 {
				t.Errorf("%s: %s is listed in BENCHMARK.json but read %v", w.Name, d.Name, s.Median)
			}
		}
		validateTrace(t, readTrace(t, filepath.Join(out, w.Name+".trace.jsonl")))
	}
}

func TestRefusesOversubscribedWorkers(t *testing.T) {
	if err := run([]string{"-quick", "-workers", "1024", "-out", t.TempDir()}); err == nil {
		t.Fatal("-workers above GOMAXPROCS was accepted")
	}
}
