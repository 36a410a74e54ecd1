package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func compareFiles(out io.Writer, specPath, aPath, bPath string) error {
	var spec benchmarkSpec
	var a, b resultFile
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	return compareResults(out, spec, a, b)
}

// verdict of one workload x metric row.
const (
	vOK         = "ok"
	vWorse      = "worse"
	vUnresolved = "unresolved" // the repetitions' own spread exceeds the bound
	vMissing    = "missing"
)

// judge compares candidate b against baseline a under a relative bound.
func judge(name, better string, bound float64, a, b stat) string {
	spread := func(s stat) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Max - s.Min) / s.Median
	}
	worse := b.Median - a.Median
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse <= 0:
		return vOK
	case name == "setup_s" && worse < setupFloor:
		return vOK
	case spread(a) > bound || spread(b) > bound:
		return vUnresolved
	case worse > bound*a.Median:
		return vWorse
	}
	return vOK
}

// compareResults prints one row per workload x end-to-end metric and
// fails on any row that is worse or missing, and on any rise in failed
// client-rounds. Results taken at different gomaxprocs or round counts
// are not comparable and are refused.
func compareResults(out io.Writer, spec benchmarkSpec, a, b resultFile) error {
	if a.Context.GoMaxProcs != b.Context.GoMaxProcs {
		return fmt.Errorf("compare: gomaxprocs differ (%d vs %d): not comparable", a.Context.GoMaxProcs, b.Context.GoMaxProcs)
	}
	// BENCHMARK.json's bound where it lists the metric; final_loss, which
	// it cannot list, keeps the catalogue's.
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var names []string
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	bad := 0
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(out, "%-16s %-26s %s\n", name, "*", vMissing)
			bad++
			continue
		}
		if wa.Rounds != wb.Rounds || wa.Warmup != wb.Warmup {
			return fmt.Errorf("compare: %s ran R=%d W=%d vs R=%d W=%d: not comparable", name, wa.Rounds, wa.Warmup, wb.Rounds, wb.Warmup)
		}
		for _, m := range endToEnd {
			if b, ok := bounds[m.Name]; ok {
				m.Bound = b
			}
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				fmt.Fprintf(out, "%-16s %-26s %s\n", name, m.Name, vMissing)
				bad++
				continue
			}
			v := judge(m.Name, m.Better, m.Bound, sa, sb)
			fmt.Fprintf(out, "%-16s %-26s %-10s %.6g -> %.6g %s (%+.2f%%, bound %.0f%%)\n",
				name, m.Name, v, sa.Median, sb.Median, sa.Unit, 100*(sb.Median-sa.Median)/sa.Median, 100*m.Bound)
			if v == vWorse {
				bad++
			}
		}
		// failed_share may not rise at all.
		v := vOK
		if wb.Failed*wa.Attempted > wa.Failed*wb.Attempted {
			v = vWorse
			bad++
		}
		fmt.Fprintf(out, "%-16s %-26s %-10s %d/%d -> %d/%d\n", name, failedShare, v, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
	}
	if bad > 0 {
		return fmt.Errorf("compare: %d rows worse or missing", bad)
	}
	return nil
}
