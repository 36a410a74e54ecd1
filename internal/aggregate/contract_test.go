package aggregate

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"fedms/internal/randx"
)

// allRules enumerates every aggregation rule with representative
// parameters, for uniform contract checks.
func allRules() []Rule {
	return []Rule{
		Mean{},
		TrimmedMean{Beta: 0.2},
		CoordinateMedian{},
		Krum{F: 2},
		MultiKrum{F: 2},
		Bulyan{F: 1},
		GeoMedian{},
		CenteredClipping{},
		// Loss rules run their geometry-only fallback here (no oracle
		// through the plain Rule interface); the oracle path has its own
		// contract tests in loss_test.go.
		FedGreed{},
		LossCluster{},
	}
}

// TestAllRulesPermutationInvariant: no rule's output may depend on
// input order — in Fed-MS the P models arrive in arbitrary network
// order.
func TestAllRulesPermutationInvariant(t *testing.T) {
	for _, rule := range allRules() {
		rule := rule
		t.Run(rule.Name(), func(t *testing.T) {
			err := quick.Check(func(seed uint64) bool {
				r := randx.New(seed)
				vecs := randomVecs(r, 9, 6)
				a := rule.Aggregate(vecs)
				perm := randx.Perm(r, len(vecs))
				shuffled := make([][]float64, len(vecs))
				for i, p := range perm {
					shuffled[i] = vecs[p]
				}
				b := rule.Aggregate(shuffled)
				for i := range a {
					if math.Abs(a[i]-b[i]) > 1e-9 {
						return false
					}
				}
				return true
			}, &quick.Config{MaxCount: 15})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllRulesIdempotentOnConstants: identical inputs must return that
// input for every rule.
func TestAllRulesIdempotentOnConstants(t *testing.T) {
	v := []float64{0.25, -1.5, 3}
	vecs := make([][]float64, 9)
	for i := range vecs {
		vecs[i] = v
	}
	for _, rule := range allRules() {
		got := rule.Aggregate(vecs)
		for i := range v {
			if math.Abs(got[i]-v[i]) > 1e-6 {
				t.Fatalf("%s of constant inputs = %v", rule.Name(), got)
			}
		}
	}
}

// TestAllRulesFreshOutput: the returned slice must not alias any input
// (mutating it must not corrupt caller state).
func TestAllRulesFreshOutput(t *testing.T) {
	r := randx.New(5)
	for _, rule := range allRules() {
		vecs := randomVecs(r, 8, 4)
		snapshot := make([][]float64, len(vecs))
		for i, v := range vecs {
			snapshot[i] = append([]float64(nil), v...)
		}
		out := rule.Aggregate(vecs)
		for i := range out {
			out[i] = 1e30
		}
		for i := range vecs {
			for j := range vecs[i] {
				if vecs[i][j] != snapshot[i][j] {
					t.Fatalf("%s output aliases input %d", rule.Name(), i)
				}
			}
		}
	}
}

// TestAllRulesTranslationEquivariant: shifting every input by a
// constant vector must shift the output by the same vector (all these
// rules are location statistics).
func TestAllRulesTranslationEquivariant(t *testing.T) {
	r := randx.New(6)
	shift := []float64{2, -3, 0.5, 10}
	for _, rule := range allRules() {
		vecs := randomVecs(r, 9, 4)
		base := rule.Aggregate(vecs)
		shifted := make([][]float64, len(vecs))
		for i, v := range vecs {
			shifted[i] = append([]float64(nil), v...)
			for j := range shift {
				shifted[i][j] += shift[j]
			}
		}
		got := rule.Aggregate(shifted)
		for j := range shift {
			if math.Abs(got[j]-(base[j]+shift[j])) > 1e-6 {
				t.Fatalf("%s not translation equivariant at coord %d: %v vs %v",
					rule.Name(), j, got[j], base[j]+shift[j])
			}
		}
	}
}

// TestAllRulesScaleEquivariant: scaling every input by c scales the
// output by c.
func TestAllRulesScaleEquivariant(t *testing.T) {
	r := randx.New(7)
	const c = 3.5
	for _, rule := range allRules() {
		vecs := randomVecs(r, 9, 4)
		base := rule.Aggregate(vecs)
		scaled := make([][]float64, len(vecs))
		for i, v := range vecs {
			scaled[i] = append([]float64(nil), v...)
			for j := range scaled[i] {
				scaled[i][j] *= c
			}
		}
		got := rule.Aggregate(scaled)
		for j := range base {
			if math.Abs(got[j]-c*base[j]) > 1e-6*math.Max(1, math.Abs(c*base[j])) {
				t.Fatalf("%s not scale equivariant at coord %d: %v vs %v",
					rule.Name(), j, got[j], c*base[j])
			}
		}
	}
}

// TestTrimmedMeanPartialParticipation: the degraded-round guarantee.
// When only P' of P global models arrive (lost to crashes, drops or
// partitions) the tolerant client keeps the absolute per-side trim
// count m = ⌈β·P⌉ = B via TrimmedMean{Trim: B}. For ANY subset with
// P' ≥ 2B+1 members of which at most B are Byzantine, the filtered
// result must stay within the coordinate-wise [min, max] of the benign
// members — Lemma 2 of the paper, extended to partial participation.
func TestTrimmedMeanPartialParticipation(t *testing.T) {
	const (
		pTotal = 7
		b      = 2
		d      = 5
	)
	err := quick.Check(func(seed uint64) bool {
		r := randx.New(seed)
		// Subset size P' ∈ [2B+1, P].
		pPrime := 2*b + 1 + r.IntN(pTotal-2*b)
		// At most B Byzantine members survive into the subset.
		byzCount := r.IntN(b + 1)

		benign := randomVecs(r, pPrime-byzCount, d)
		vecs := make([][]float64, 0, pPrime)
		vecs = append(vecs, benign...)
		for i := 0; i < byzCount; i++ {
			// Adversarial extremes, alternating sign per coordinate.
			v := make([]float64, d)
			for j := range v {
				v[j] = 1e9 * float64(1-2*((i+j)%2))
			}
			vecs = append(vecs, v)
		}
		// Network arrival order is arbitrary.
		perm := randx.Perm(r, len(vecs))
		shuffled := make([][]float64, len(vecs))
		for i, p := range perm {
			shuffled[i] = vecs[p]
		}

		got := TrimmedMean{Trim: b}.Aggregate(shuffled)
		for j := 0; j < d; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range benign {
				lo = math.Min(lo, v[j])
				hi = math.Max(hi, v[j])
			}
			if !(got[j] >= lo-1e-9 && got[j] <= hi+1e-9) {
				t.Logf("P'=%d byz=%d coord %d: %v outside benign [%v, %v]",
					pPrime, byzCount, j, got[j], lo, hi)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTrimmedMeanTrimOverrideMatchesBeta: on a full federation the
// explicit-count filter is the same function as the rate-based one, so
// switching to Trim for a degraded round changes nothing when all P
// models arrive after all.
func TestTrimmedMeanTrimOverrideMatchesBeta(t *testing.T) {
	r := randx.New(11)
	vecs := randomVecs(r, 10, 6)
	byBeta := TrimmedMean{Beta: 0.2}.Aggregate(vecs) // ⌈0.2·10⌉ = 2
	byTrim := TrimmedMean{Trim: 2}.Aggregate(vecs)
	for i := range byBeta {
		if byBeta[i] != byTrim[i] {
			t.Fatalf("coord %d: beta path %v != trim path %v", i, byBeta[i], byTrim[i])
		}
	}
	if got := (TrimmedMean{Trim: 2}).TrimCount(5); got != 2 {
		t.Fatalf("TrimCount(5) with Trim=2 = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TrimCount must panic when 2·Trim ≥ n")
		}
	}()
	(TrimmedMean{Trim: 2}).TrimCount(4)
}

// coordParallelRules enumerates every (rule, worker-count) pair of the
// coordinate-parallel aggregation path, for serial-vs-parallel checks.
func coordParallelRules(workers int) []Rule {
	return []Rule{
		TrimmedMean{Beta: 0.2, Workers: workers},
		TrimmedMean{Beta: 1.0 / 3.0, Workers: workers},
		TrimmedMean{Trim: 2, Workers: workers},
		CoordinateMedian{Workers: workers},
	}
}

// TestSerialParallelBitIdentical: the worker-parallel coordinate path
// must produce bit-for-bit the output of the serial path for any worker
// count — the engine's determinism guarantee (Config.Workers must not
// change results). d·n spans both sides of the parallel-dispatch work
// gate (minParallelWork) and n covers odd and even column lengths.
func TestSerialParallelBitIdentical(t *testing.T) {
	r := randx.New(21)
	for _, n := range []int{7, 10} {
		for _, d := range []int{64, 2048, 5000, minParallelWork/7 + 1} {
			vecs := randomVecs(r, n, d)
			for ri, serial := range coordParallelRules(1) {
				want := serial.Aggregate(vecs)
				for _, workers := range []int{2, 8, -1} {
					got := coordParallelRules(workers)[ri].Aggregate(vecs)
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%s n=%d d=%d workers=%d coord %d: %v != serial %v",
								serial.Name(), n, d, workers, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestCoordChunkWorkGate: the parallel dispatch must key on the total
// work volume d·n, not d alone — a wide-but-cheap aggregation (large d,
// tiny n·d product) pays goroutine handoff for columns that cost almost
// nothing, which regressed small-model multi-worker rounds. Below the
// gate the callback must run exactly once on the calling goroutine
// covering [0, d); above it, with workers > 1, the chunks must be a
// disjoint exact partition.
func TestCoordChunkWorkGate(t *testing.T) {
	type span struct{ lo, hi int }
	collect := func(d, n, workers int) []span {
		var mu sync.Mutex
		var spans []span
		forEachCoordChunk(d, n, workers, func(lo, hi int) {
			mu.Lock()
			spans = append(spans, span{lo, hi})
			mu.Unlock()
		})
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		return spans
	}

	// d alone used to trip the old d-only gate; with n=1 the volume is
	// far below minParallelWork, so this must stay serial.
	d := minParallelWork / 2
	if got := collect(d, 1, 8); len(got) != 1 || got[0] != (span{0, d}) {
		t.Fatalf("d=%d n=1 workers=8: want single serial span, got %v", d, got)
	}
	// The same d with enough inputs crosses the gate and must fan out.
	if got := collect(d, 4, 8); len(got) < 2 {
		t.Fatalf("d=%d n=4 workers=8: want parallel fan-out, got %v", d, got)
	} else {
		at := 0
		for _, s := range got {
			if s.lo != at || s.hi <= s.lo {
				t.Fatalf("chunks not a disjoint partition: %v", got)
			}
			at = s.hi
		}
		if at != d {
			t.Fatalf("chunks cover [0,%d), want [0,%d)", at, d)
		}
	}
	// workers <= 1 stays serial regardless of volume.
	if got := collect(d, 64, 1); len(got) != 1 || got[0] != (span{0, d}) {
		t.Fatalf("workers=1: want single serial span, got %v", got)
	}
}

// TestParallelPathFreshOutput: the parallel path must neither retain
// references to its inputs nor mutate them — the engine hands the same
// received slices to every client's filter concurrently.
func TestParallelPathFreshOutput(t *testing.T) {
	r := randx.New(22)
	const n, d = 9, minParallelWork/9 + 1 // past the work gate: genuinely parallel
	for _, rule := range coordParallelRules(8) {
		vecs := randomVecs(r, n, d)
		snapshot := make([][]float64, n)
		for i, v := range vecs {
			snapshot[i] = append([]float64(nil), v...)
		}
		out := rule.Aggregate(vecs)
		for j := range out {
			out[j] = 1e30 // would corrupt vecs if out aliased an input
		}
		for i := range vecs {
			for j := range vecs[i] {
				if vecs[i][j] != snapshot[i][j] {
					t.Fatalf("%s (parallel) retained or mutated input %d", rule.Name(), i)
				}
			}
		}
	}
}

// TestTrimCountGrid: over the full feasible (B, P) grid with P ≤ 12,
// the Fed-MS rate β = B/P must trim exactly B per side despite float64
// rounding of B/P — the property Lemma 2 needs (m ≥ B). The floor-based
// count regressed this for non-terminating ratios like 2/6 and 3/9,
// whose β·P products round just below B.
func TestTrimCountGrid(t *testing.T) {
	for p := 1; p <= 12; p++ {
		for b := 0; 2*b < p; b++ {
			beta := float64(b) / float64(p)
			if got := (TrimmedMean{Beta: beta}).TrimCount(p); got != b {
				t.Errorf("TrimCount(beta=%d/%d, n=%d) = %d, want %d", b, p, p, got, b)
			}
		}
	}
	// Non-integral products take the ceiling (trim enough, never too
	// little), clamped so at least one value survives.
	ceilCases := []struct {
		beta float64
		n    int
		want int
	}{
		{0.3, 7, 3},   // ⌈2.1⌉ = 3, the motivating regression
		{0.25, 10, 3}, // ⌈2.5⌉ = 3
		{0.15, 10, 2}, // ⌈1.5⌉ = 2
		{0.4, 7, 3},   // ⌈2.8⌉ = 3 = ⌊(n-1)/2⌋, boundary of the clamp
		{0.2, 2, 0},   // ⌈0.4⌉ = 1 clamped to ⌊1/2⌋ = 0: degraded quorum survives
		{0.3, 3, 1},   // ⌈0.9⌉ = 1
	}
	for _, tt := range ceilCases {
		if got := (TrimmedMean{Beta: tt.beta}).TrimCount(tt.n); got != tt.want {
			t.Errorf("TrimCount(beta=%v, n=%d) = %d, want %d", tt.beta, tt.n, got, tt.want)
		}
	}
}

// TestTrimmedMeanSelectionMatchesSort: the partial-selection fast path
// (engaged for large n with small trim counts) must agree with a plain
// sort-and-average reference. Not bitwise — the two paths sum the kept
// values in different orders — but to tight relative tolerance, and on
// heavy-duplicate inputs where boundary-value counting is easiest to
// get wrong.
func TestTrimmedMeanSelectionMatchesSort(t *testing.T) {
	ref := func(col []float64, m int) float64 {
		s := append([]float64(nil), col...)
		sort.Float64s(s)
		sum := 0.0
		for _, v := range s[m : len(s)-m] {
			sum += v
		}
		return sum / float64(len(s)-2*m)
	}
	r := randx.New(23)
	for _, n := range []int{32, 33, 64, 100} {
		for m := 1; 8*m <= n; m++ {
			if !useSelection(n, m) {
				t.Fatalf("gate rejected n=%d m=%d", n, m)
			}
			for trial := 0; trial < 20; trial++ {
				col := make([]float64, n)
				switch trial % 3 {
				case 0:
					randx.Normal(r, col, 0, 1)
				case 1: // many duplicates, including at the trim boundary
					for i := range col {
						col[i] = float64(r.IntN(4))
					}
				case 2: // Byzantine-scale outliers on both sides
					randx.Normal(r, col, 0, 1)
					for i := 0; i < m; i++ {
						col[r.IntN(n)] = 1e12 * float64(1-2*(i%2))
					}
				}
				want := ref(col, m)
				got := trimmedMeanOf(append([]float64(nil), col...), nil, m, &chunkScratch{win: make([]float64, 2*m)})
				tol := 1e-12 * math.Max(1, math.Abs(want))
				if math.Abs(got-want) > tol {
					t.Fatalf("n=%d m=%d trial %d: selection %v != sort %v", n, m, trial, got, want)
				}
			}
		}
	}
}

// TestWithWorkers: the engine's knob-threading helper must set Workers
// on the coordinate-parallel rules and leave every other rule (and
// already-configured rules) untouched.
func TestWithWorkers(t *testing.T) {
	if got := WithWorkers(TrimmedMean{Beta: 0.2}, 4).(TrimmedMean).Workers; got != 4 {
		t.Fatalf("WithWorkers(TrimmedMean).Workers = %d", got)
	}
	if got := WithWorkers(CoordinateMedian{}, 4).(CoordinateMedian).Workers; got != 4 {
		t.Fatalf("WithWorkers(CoordinateMedian).Workers = %d", got)
	}
	if got := WithWorkers(TrimmedMean{Beta: 0.2, Workers: 2}, 4).(TrimmedMean).Workers; got != 2 {
		t.Fatalf("WithWorkers must not override an explicit worker count, got %d", got)
	}
	if _, ok := WithWorkers(GeoMedian{}, 4).(GeoMedian); !ok {
		t.Fatal("WithWorkers must pass unrelated rules through unchanged")
	}
}

// TestRobustRulesBounded: every rule except Mean keeps one unbounded
// outlier's influence bounded.
func TestRobustRulesBounded(t *testing.T) {
	r := randx.New(8)
	base := randomVecs(r, 9, 4)
	for _, rule := range allRules() {
		if _, isMean := rule.(Mean); isMean {
			continue
		}
		clean := rule.Aggregate(base)
		poisoned := append(append([][]float64{}, base...),
			[]float64{1e12, -1e12, 1e12, -1e12})
		got := rule.Aggregate(poisoned)
		if d := dist(clean, got); d > 10 {
			t.Fatalf("%s moved %v under a single unbounded outlier", rule.Name(), d)
		}
	}
}
