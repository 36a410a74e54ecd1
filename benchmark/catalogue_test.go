package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// readmeTables returns, per "## " section of README.md, the rows of its
// tables keyed by the back-quoted name in the first cell.
func readmeTables(t *testing.T) map[string]map[string][]string {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string][]string{}
	section := ""
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "## ") {
			section = strings.TrimPrefix(line, "## ")
			continue
		}
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		name := strings.Trim(cells[0], "`")
		if out[section] == nil {
			out[section] = map[string][]string{}
		}
		if _, dup := out[section][name]; dup {
			t.Errorf("README %q tabulates %s twice", section, name)
		}
		out[section][name] = cells
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestCatalogue holds the three places a name lives to one set: what the
// harness emits, what BENCHMARK.json lists and what README.md tabulates.
func TestCatalogue(t *testing.T) {
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	readme := readmeTables(t)

	// Workloads.
	emitted := map[string]string{}
	for _, w := range workloads(false) {
		emitted[w.Name] = w.Why
	}
	listed := map[string]string{}
	for _, w := range spec.Workloads {
		listed[w.Name] = w.Why
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(emitted, listed) {
		t.Errorf("workloads differ:\n harness        %v\n BENCHMARK.json %v", emitted, listed)
	}
	if got, want := sortedKeys(readme["Workloads"]), sortedKeys(emitted); !reflect.DeepEqual(got, want) {
		t.Errorf("README workloads %v, harness %v", got, want)
	}

	// End-to-end metrics: BENCHMARK.json carries all but failed_share
	// and final_loss.
	var want []specMetric
	maxBound := 0.0
	for _, d := range endToEnd {
		bound := d.Bound
		if d.Name != finalLoss {
			want = append(want, specMetric{d.Name, d.Unit, d.Better, &bound})
		}
		maxBound = max(maxBound, d.Bound)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, want) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %s\n harness        %s", mustJSON(spec.EndToEnd), mustJSON(want))
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be listed with the largest bound")
	}
	e2e := append(sortedKeys(map[string]bool{failedShare: true}), namesOf(endToEnd)...)
	sort.Strings(e2e)
	if got := sortedKeys(readme["End-to-end metrics"]); !reflect.DeepEqual(got, e2e) {
		t.Errorf("README end-to-end metrics %v, harness %v", got, e2e)
	}

	// Per-layer metrics: README tabulates all, BENCHMARK.json the subset
	// that is never 0 on any workload.
	want = nil
	for _, d := range perLayer {
		if driverPerLayer[d.Name] {
			want = append(want, specMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
		}
		row := readme["Per-layer metrics and what each should move"][d.Name]
		if row == nil {
			t.Errorf("README does not tabulate %s", d.Name)
		} else if row[1] != d.Unit || row[len(row)-1] != d.Moves {
			t.Errorf("README row for %s says unit %q, moves %q; the catalogue says %q, %q", d.Name, row[1], row[len(row)-1], d.Unit, d.Moves)
		}
	}
	if !reflect.DeepEqual(spec.PerLayer, want) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %s\n harness        %s", mustJSON(spec.PerLayer), mustJSON(want))
	}
	if got, want := len(readme["Per-layer metrics and what each should move"]), len(perLayer); got != want {
		t.Errorf("README tabulates %d per-layer metrics, the harness emits %d", got, want)
	}
	for name := range driverPerLayer {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("driverPerLayer names %s, which is not a per-layer metric", name)
		}
	}

	// Names are unique across the file and well-formed.
	seen := map[string]bool{}
	for _, n := range append(append(sortedKeys(emitted), e2e...), namesOf(perLayer)...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
