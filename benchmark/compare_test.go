package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	st := func(med, min, max float64) stat { return stat{Median: med, Min: min, Max: max, N: 3} }
	for _, tc := range []struct {
		name, metric, better string
		bound                float64
		a, b                 stat
		want                 string
	}{
		{"exactly on the bound", "round_s_p50", "lower", 0.125, st(8, 8, 8), st(9, 9, 9), vOK},
		{"just past the bound", "round_s_p50", "lower", 0.125, st(8, 8, 8), st(9.001, 9.001, 9.001), vWorse},
		{"improvement", "round_s_p50", "lower", 0.10, st(1, 1, 1), st(0.5, 0.5, 0.5), vOK},
		{"higher is better, drop past bound", "rounds_per_s", "higher", 0.10, st(10, 10, 10), st(8.9, 8.9, 8.9), vWorse},
		{"higher is better, drop on bound", "rounds_per_s", "higher", 0.125, st(16, 16, 16), st(14, 14, 14), vOK},
		{"higher is better, rise", "rounds_per_s", "higher", 0.10, st(10, 10, 10), st(20, 20, 20), vOK},
		{"baseline spread wider than bound", "round_s_p50", "lower", 0.10, st(1, 0.9, 1.1), st(1.5, 1.5, 1.5), vUnresolved},
		{"candidate spread wider than bound", "round_s_p50", "lower", 0.10, st(1, 1, 1), st(1.5, 1.3, 1.7), vUnresolved},
		{"noisy but not worse", "round_s_p50", "lower", 0.10, st(1, 0.5, 1.5), st(0.9, 0.5, 1.5), vOK},
		{"exact metric, any growth past 1%", "uplink_bytes_per_round", "lower", 0.01, st(1000, 1000, 1000), st(1011, 1011, 1011), vWorse},
		{"setup under the absolute floor", "setup_s", "lower", 0.25, st(0.10, 0.10, 0.10), st(0.149, 0.149, 0.149), vOK},
		{"setup over floor and bound", "setup_s", "lower", 0.25, st(0.10, 0.10, 0.10), st(0.16, 0.16, 0.16), vWorse},
		{"setup over floor, inside bound", "setup_s", "lower", 0.25, st(1, 1, 1), st(1.2, 1.2, 1.2), vOK},
	} {
		if got := judge(tc.metric, tc.better, tc.bound, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func compareFixture() (benchmarkSpec, resultFile) {
	var spec benchmarkSpec
	e2e := map[string]stat{}
	for _, d := range endToEnd {
		e2e[d.Name] = stat{Median: 1, Min: 1, Max: 1, N: 3, Unit: d.Unit}
		if d.Name != finalLoss {
			spec.EndToEnd = append(spec.EndToEnd, struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			}{d.Name, 0.10})
		}
	}
	res := resultFile{
		Context: runContext{GoMaxProcs: 2},
		Workloads: map[string]*workloadResult{"dist_wide_dense": {
			Rounds: 40, Warmup: 5, Attempted: 320, EndToEnd: e2e,
		}},
	}
	return spec, res
}

func TestCompareResults(t *testing.T) {
	spec, a := compareFixture()

	var out bytes.Buffer
	if err := compareResults(&out, spec, a, a); err != nil {
		t.Fatalf("a result compared with itself: %v", err)
	}
	if !strings.Contains(out.String(), "round_s_p50") || !strings.Contains(out.String(), failedShare) {
		t.Fatalf("rows missing from:\n%s", out.String())
	}

	_, slow := compareFixture()
	slow.Workloads["dist_wide_dense"].EndToEnd["round_s_p50"] = stat{Median: 1.2, Min: 1.2, Max: 1.2, N: 3}
	if err := compareResults(&out, spec, a, slow); err == nil {
		t.Fatal("a 20% slower round passed a 10% bound")
	}

	// final_loss is not in BENCHMARK.json; the catalogue's bound holds it.
	_, lossy := compareFixture()
	lossy.Workloads["dist_wide_dense"].EndToEnd[finalLoss] = stat{Median: 1.05, Min: 1.05, Max: 1.05, N: 3}
	if err := compareResults(&out, spec, a, lossy); err == nil {
		t.Fatal("a 5% higher final_loss passed")
	}

	_, failing := compareFixture()
	failing.Workloads["dist_wide_dense"].Failed = 1
	if err := compareResults(&out, spec, a, failing); err == nil {
		t.Fatal("a failed client-round passed")
	}

	_, missing := compareFixture()
	delete(missing.Workloads["dist_wide_dense"].EndToEnd, "round_s_p50")
	out.Reset()
	if err := compareResults(&out, spec, a, missing); err == nil || !strings.Contains(out.String(), vMissing) {
		t.Fatalf("a missing metric passed (err %v):\n%s", err, out.String())
	}

	_, procs := compareFixture()
	procs.Context.GoMaxProcs = 4
	if err := compareResults(&out, spec, a, procs); err == nil || !strings.Contains(err.Error(), "gomaxprocs") {
		t.Fatalf("mismatched gomaxprocs: err = %v", err)
	}

	_, rounds := compareFixture()
	rounds.Workloads["dist_wide_dense"].Rounds = 8
	if err := compareResults(&out, spec, a, rounds); err == nil || !strings.Contains(err.Error(), "R=") {
		t.Fatalf("mismatched R: err = %v", err)
	}
}
