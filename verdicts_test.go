package fedms_test

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// finalRow reads results/<name>.csv, the committed figure data that
// `make reproduce` regenerates, and returns a lookup into its last row
// (the final round) by column name. A missing column fails the test.
func finalRow(t *testing.T, name string) func(col string) float64 {
	t.Helper()
	f, err := os.Open(filepath.Join("results", name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rows) < 2 {
		t.Fatalf("%s: no data rows", name)
	}
	header, last := rows[0], rows[len(rows)-1]
	return func(col string) float64 {
		t.Helper()
		i := slices.Index(header, col)
		if i < 0 || i >= len(last) {
			t.Fatalf("%s: no column %q in %v", name, col, header)
		}
		v, err := strconv.ParseFloat(last[i], 64)
		if err != nil {
			t.Fatalf("%s: column %q: %v", name, col, err)
		}
		return v
	}
}

// spread is the largest minus the smallest of vs.
func spread(vs ...float64) float64 { return slices.Max(vs) - slices.Min(vs) }

// TestPaperVerdicts holds EXPERIMENTS.md's shape verdicts to the final
// round of the committed figure data, with the margins the files show:
// a regenerated CSV that no longer supports a verdict fails here.
func TestPaperVerdicts(t *testing.T) {
	const fedms, minus, vanilla = "fedms(b=0.2)", "fedms-(b=0.1)", "vanilla"

	// Fig. 2: under noise and random Fed-MS wins and the weaker trim
	// sits between; the in-spread safeguard and backward attacks leave
	// all three methods level.
	for _, atk := range []string{"noise", "random"} {
		at := finalRow(t, "fig2_"+atk)
		if f, m, v := at(fedms), at(minus), at(vanilla); !(f >= m && m >= v) {
			t.Errorf("Fig. 2 %s: want Fed-MS %.4f ≥ Fed-MS⁻ %.4f ≥ Vanilla %.4f", atk, f, m, v)
		}
	}
	for _, atk := range []string{"safeguard", "backward"} {
		at := finalRow(t, "fig2_"+atk)
		if s := spread(at(fedms), at(minus), at(vanilla)); !(s <= 0.003) {
			t.Errorf("Fig. 2 %s: the three methods span %.4f, want ≤ 0.003", atk, s)
		}
	}

	// Fig. 3: Fed-MS (β = ε) stays within 0.01 of its ε = 0 accuracy;
	// Vanilla loses at least 0.1 of its own once ε ≥ 10 %.
	eps0 := finalRow(t, "fig3_eps0")
	fed0, van0 := eps0("fedms(b=0.10)"), eps0(vanilla)
	for _, tc := range []struct{ eps, col string }{
		{"eps10", "fedms(b=0.10)"}, {"eps20", "fedms(b=0.20)"}, {"eps30", "fedms(b=0.30)"},
	} {
		at := finalRow(t, "fig3_"+tc.eps)
		if f := at(tc.col); !(f >= fed0-0.01 && f <= fed0+0.01) {
			t.Errorf("Fig. 3 %s: Fed-MS %.4f, want within 0.01 of its ε=0 %.4f", tc.eps, f, fed0)
		}
		if v := at(vanilla); !(v <= van0-0.1) {
			t.Errorf("Fig. 3 %s: Vanilla %.4f, want ≥ 0.1 below its ε=0 %.4f", tc.eps, v, van0)
		}
	}

	// Fig. 5: Fed-MS is flat across D_α and beats Vanilla at both ends.
	at := finalRow(t, "fig5")
	if s := spread(at("fedms(Da=1)"), at("fedms(Da=5)"), at("fedms(Da=10)"), at("fedms(Da=1000)")); !(s <= 0.005) {
		t.Errorf("Fig. 5: Fed-MS spans %.4f across D_α, want ≤ 0.005", s)
	}
	for _, da := range []string{"1", "1000"} {
		if f, v := at("fedms(Da="+da+")"), at("vanilla(Da="+da+")"); !(f > v) {
			t.Errorf("Fig. 5 D_α=%s: Fed-MS %.4f, want above Vanilla %.4f", da, f, v)
		}
	}
}
