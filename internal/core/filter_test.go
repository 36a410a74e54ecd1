package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/compress"
	"fedms/internal/randx"
)

// payloads wraps dense models as payload views, as the engine does.
func payloads(models [][]float64) []compress.Payload {
	views := make([]compress.Payload, len(models))
	for i, m := range models {
		views[i] = compress.DensePayload(m)
	}
	return views
}

// TestFilter: core.Filter, the client model filter both runtimes run.
// With P = 10 and β = 0.2 the per-side trim is B = 2 however many models
// arrive; a round below the quorum, or too small to absorb the trim, is
// rejected by name; the fused-off arm trims the same way; other rules
// pass through; the output buffer is reused; and up to B Byzantine
// models, NaN and ±Inf included, never move a coordinate outside the
// benign models' range.
func TestFilter(t *testing.T) {
	const p, d = 10, 64
	r := randx.New(17)
	models := make([][]float64, p)
	for i := range models {
		models[i] = make([]float64, d)
		randx.Normal(r, models[i], 0, 1)
	}
	tm := aggregate.TrimmedMean{Beta: 0.2}

	t.Run("trim fixed against P", func(t *testing.T) {
		f := NewFilter(tm, nil, p, 5, 1)
		for _, n := range []int{10, 9, 5} {
			res, err := f.Apply(payloads(models[:n]))
			if err != nil {
				t.Fatalf("P'=%d: %v", n, err)
			}
			if want := (aggregate.TrimmedMean{Trim: 2}).Aggregate(models[:n]); !sameBits(res.Out, want) {
				t.Errorf("P'=%d: output differs from a trim of 2 per side", n)
			}
			if !res.Fused {
				t.Errorf("P'=%d: the trimmed mean did not run fused", n)
			}
			if n == p && !sameBits(res.Out, tm.Aggregate(models)) {
				t.Error("P'=P: output differs from the β-derived rule")
			}
			if n == 5 && sameBits(res.Out, tm.Aggregate(models[:n])) {
				t.Error("P'=5: output matches ⌈β·P'⌉ = 1, want the trim fixed at 2")
			}
		}
	})

	t.Run("rejections", func(t *testing.T) {
		for _, tc := range []struct {
			name      string
			rule      aggregate.Rule
			quorum, n int
			want      string
		}{
			{"2·trim ≥ P'", tm, 3, 4, "only 4 of 10 global models (need ≥ 5)"},
			{"below quorum", tm, 7, 6, "only 6 of 10 global models (need ≥ 7)"},
			{"strict, one missing", aggregate.CoordinateMedian{}, p, 9, "only 9 of 10 global models (need ≥ 10)"},
			{"none arrived", aggregate.Mean{}, 1, 0, "only 0 of 10 global models (need ≥ 1)"},
		} {
			_, err := NewFilter(tc.rule, nil, p, tc.quorum, 1).Apply(payloads(models[:tc.n]))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
			}
		}
	})

	t.Run("fused-off arm trims alike", func(t *testing.T) {
		fused := NewFilter(tm, nil, p, 5, 1)
		off := NewFilter(aggregate.NoFuse{Rule: tm}, nil, p, 5, 1)
		for _, n := range []int{10, 7, 5} {
			a, err := fused.Apply(payloads(models[:n]))
			if err != nil {
				t.Fatal(err)
			}
			b, err := off.Apply(payloads(models[:n]))
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(a.Out, b.Out) || !a.Fused || b.Fused {
				t.Errorf("P'=%d: fused %v / off %v, bits equal %v", n, a.Fused, b.Fused, sameBits(a.Out, b.Out))
			}
		}
	})

	t.Run("other rules unchanged", func(t *testing.T) {
		res, err := NewFilter(aggregate.CoordinateMedian{}, nil, p, 3, 1).Apply(payloads(models[:7]))
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(res.Out, aggregate.CoordinateMedian{}.Aggregate(models[:7])) {
			t.Error("CoordinateMedian: output differs from the rule's own")
		}
		sq := func(m []float64) float64 {
			s := 0.0
			for _, v := range m {
				s += v * v
			}
			return s
		}
		calls := 0
		oracle := func(m []float64) float64 { calls++; return sq(m) }
		res, err = NewFilter(aggregate.FedGreed{}, oracle, p, 3, 1).Apply(payloads(models[:7]))
		if err != nil {
			t.Fatal(err)
		}
		if res.OracleEvals == 0 || res.OracleEvals != calls {
			t.Errorf("FedGreed: OracleEvals %d, the oracle counted %d calls", res.OracleEvals, calls)
		}
		if want := (aggregate.FedGreed{}).AggregateWithLoss(models[:7], sq); !sameBits(res.Out, want) {
			t.Error("FedGreed: output differs from the rule's own")
		}
	})

	t.Run("output buffer reused", func(t *testing.T) {
		f := NewFilter(tm, nil, p, p, 1)
		a, err := f.Apply(payloads(models))
		if err != nil {
			t.Fatal(err)
		}
		rev := slices.Clone(models)
		slices.Reverse(rev)
		b, err := f.Apply(payloads(rev))
		if err != nil {
			t.Fatal(err)
		}
		if &a.Out[0] != &b.Out[0] {
			t.Error("the second Apply allocated a new output")
		}
	})

	t.Run("benign range under B Byzantine models", func(t *testing.T) {
		const b = 2
		poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}
		for trial := 0; trial < 200; trial++ {
			n := 2*b + 1 + r.IntN(p-2*b)
			byz := r.IntN(b + 1)
			got := make([][]float64, n)
			var benign [][]float64
			for i, pos := range randx.Perm(r, n) {
				got[pos] = make([]float64, d)
				if i < byz {
					for j := range got[pos] {
						got[pos][j] = poison[r.IntN(len(poison))]
					}
					continue
				}
				randx.Normal(r, got[pos], 0, 1)
				benign = append(benign, got[pos])
			}
			for _, rule := range []aggregate.Rule{tm, aggregate.NoFuse{Rule: tm}} {
				res, err := NewFilter(rule, nil, p, 2*b+1, 1).Apply(payloads(got))
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range res.Out {
					if lo, hi := honestSpan(benign, j); outsideSpan(v, lo, hi) {
						t.Fatalf("trial %d (%s, P'=%d, %d Byzantine): coordinate %d = %v outside [%v, %v]",
							trial, rule.Name(), n, byz, j, v, lo, hi)
					}
				}
			}
		}
	})
}
