package aggregate

import (
	"sort"
	"testing"

	"fedms/internal/randx"
	"fedms/internal/sched"
)

// benchInputs builds the ISSUE benchmark setting: n=10 servers' models
// at paper-scale dimension.
func benchInputs(b *testing.B, n, d int) [][]float64 {
	b.Helper()
	r := randx.New(42)
	return randomVecs(r, n, d)
}

// referenceTrimmedMean is the pre-optimization implementation — one
// fresh column per coordinate, fully sorted with the library sort —
// kept as the benchmark baseline the optimized paths are measured
// against.
func referenceTrimmedMean(vecs [][]float64, m int) []float64 {
	n, d := len(vecs), len(vecs[0])
	out := make([]float64, d)
	for j := 0; j < d; j++ {
		col := make([]float64, n)
		for i, v := range vecs {
			col[i] = v[j]
		}
		sort.Float64s(col)
		s := 0.0
		for i := m; i < n-m; i++ {
			s += col[i]
		}
		out[j] = s / float64(n-2*m)
	}
	return out
}

func BenchmarkTrimmedMean(b *testing.B) {
	for _, d := range benchDims {
		vecs := benchInputs(b, 10, d)
		b.Run(benchName("reference", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				referenceTrimmedMean(vecs, 2)
			}
		})
		for _, workers := range []int{1, 4} {
			b.Run(benchName(map[int]string{1: "serial", 4: "workers4"}[workers], d), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					aggregateWorkers(TrimmedMean{Beta: 0.2}, vecs, workers)
				}
			})
		}
	}
}

func BenchmarkCoordinateMedian(b *testing.B) {
	for _, d := range benchDims {
		vecs := benchInputs(b, 10, d)
		for _, workers := range []int{1, 4} {
			b.Run(benchName(map[int]string{1: "serial", 4: "workers4"}[workers], d), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					aggregateWorkers(CoordinateMedian{}, vecs, workers)
				}
			})
		}
	}
}

// BenchmarkTrimmedMeanSelection exercises the partial-selection path
// (n large, m small) against its sort-everything alternative.
func BenchmarkTrimmedMeanSelection(b *testing.B) {
	const n, d = 64, 10_000
	vecs := benchInputs(b, n, d)
	b.Run("selection", func(b *testing.B) {
		tm := TrimmedMean{Trim: 2}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tm.Aggregate(vecs)
		}
	})
	b.Run("reference_sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceTrimmedMean(vecs, 2)
		}
	})
}

// benchDims are the paper-scale model dimensions every rule benchmark
// sweeps.
var benchDims = []int{10_000, 100_000}

// benchSink keeps benchmarked results live.
var benchSink []float64

// benchAggregate times one aggregation call as a sub-benchmark.
func benchAggregate(b *testing.B, name string, fn func() []float64) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = fn()
		}
	})
}

func BenchmarkMean(b *testing.B) {
	for _, d := range benchDims {
		vecs := benchInputs(b, 10, d)
		benchAggregate(b, benchName("serial", d), func() []float64 { return Mean{}.Aggregate(vecs) })
	}
}

// BenchmarkPayloadAggregation prices the fused payload kernels against
// densify-first (NoFuse) over n = 10 topk:0.01 uploads, the sparse
// operating point where fusing matters most. The "server" rows time the
// fused trimmed mean at dist_wide_topk's server shape: n = 8 topk:0.1
// uploads at d = 1e5, trim:0.2, one worker, a reused Dst; the weighted
// row is dist_wide_async's, the same views down-weighted by staleness.
// The n = 12 weighted row sits near that kernel's sparse-tile
// break-even: 8 entries per member in each 256-coordinate tile.
func BenchmarkPayloadAggregation(b *testing.B) {
	server, _ := encodeViews(b, "topk:0.1", benchInputs(b, 8, 100_000), 7)
	dst := make([]float64, 100_000)
	benchAggregate(b, "server/n=8/topk:0.1/trimmed_mean/fused/d=1e5", func() []float64 {
		return Run(Request{Rule: TrimmedMean{Beta: 0.2}, Views: server, Dst: dst, Workers: 1}).Out
	})
	weights := serverStaleWeights()
	benchAggregate(b, "server/n=8/topk:0.1/trimmed_mean/weighted/d=1e5", func() []float64 {
		return Run(Request{Rule: TrimmedMean{Beta: 0.2}, Views: server, Weights: weights, Dst: dst, Workers: 1}).Out
	})
	wide, _ := encodeViews(b, "topk:0.03125", benchInputs(b, 12, 100_000), 7)
	wideWeights := make([]float64, len(wide))
	for i := range wideWeights {
		wideWeights[i] = sched.Weight(i % 3)
	}
	benchAggregate(b, "server/n=12/topk:0.03125/trimmed_mean/weighted/d=1e5", func() []float64 {
		return Run(Request{Rule: TrimmedMean{Beta: 0.2}, Views: wide, Weights: wideWeights, Dst: dst, Workers: 1}).Out
	})
	for _, d := range benchDims {
		views, _ := encodeViews(b, "topk:0.01", benchInputs(b, 10, d), 7)
		for _, rule := range []struct {
			name string
			rule Rule
		}{{"mean", Mean{}}, {"trimmed_mean", TrimmedMean{Beta: 0.2}}} {
			for _, arm := range []struct {
				name string
				rule Rule
			}{{"fused", rule.rule}, {"densify", NoFuse{rule.rule}}} {
				benchAggregate(b, benchName(rule.name+"/"+arm.name, d), func() []float64 {
					return Run(Request{Rule: arm.rule, Views: views}).Out
				})
			}
		}
	}
}

// serverStaleWeights is an async server's member weights at
// dist_wide_async's shape: eight uploads, three of them admitted 1 or 2
// rounds stale, w = sched.Weight(s).
func serverStaleWeights() []float64 {
	weights := make([]float64, 8)
	for i, s := range []int{0, 1, 0, 0, 2, 0, 1, 0} {
		weights[i] = sched.Weight(s)
	}
	return weights
}

// BenchmarkLossRule times FedGreed and LossCluster through the oracle
// dispatch and in their geometry-only fallback. The oracle is a
// synthetic O(d) squared distance, so the numbers track the rules' own
// ordering and prefix averaging, not model inference.
func BenchmarkLossRule(b *testing.B) {
	for _, d := range benchDims {
		vecs := benchInputs(b, 10, d)
		target := randomVecs(randx.New(43), 1, d)[0]
		for _, rule := range []Rule{FedGreed{}, LossCluster{}} {
			for _, arm := range []struct {
				name string
				eval LossEval
			}{{"oracle", sqDistTo(target)}, {"fallback", nil}} {
				benchAggregate(b, benchName(rule.Name()+"/"+arm.name, d), func() []float64 {
					out, _ := aggregateWithOracle(rule, vecs, arm.eval)
					return out
				})
			}
		}
	}
}

// BenchmarkWeighted times the weighted kernels the async admission path
// threads staleness weights w(s) = 1/(1+s) through; compare against
// BenchmarkTrimmedMean and BenchmarkCoordinateMedian.
func BenchmarkWeighted(b *testing.B) {
	for _, d := range benchDims {
		vecs := benchInputs(b, 10, d)
		weights := make([]float64, len(vecs))
		for i := range weights {
			weights[i] = 1 / float64(1+i%3)
		}
		views := denseViews(vecs)
		dst := make([]float64, d)
		for _, rule := range []struct {
			name string
			rule Rule
		}{{"trimmed_mean", TrimmedMean{Beta: 0.2}}, {"median", CoordinateMedian{}}} {
			benchAggregate(b, benchName(rule.name, d), func() []float64 {
				return Request{Rule: rule.rule, Views: views, Weights: weights, Dst: dst}.run().Out
			})
		}
	}
}

func benchName(variant string, d int) string {
	switch d {
	case 10_000:
		return variant + "/d=1e4"
	case 100_000:
		return variant + "/d=1e5"
	}
	return variant
}

// BenchmarkFilter times the client filter — Run under an unweighted
// trimmed mean with a reused Dst at Workers = 1 — at the shapes the
// benchmark workloads filter: P = 5, trim 1, d = 1e5 (the dist_wide_*
// clients) and P = 10, trim 2, d = 13 000 (engine_paper). Each shape
// runs over two column shapes: "spread" draws every coordinate i.i.d.
// normal, so each column arrives in random order, and "consensus" has
// P−1 identical rows plus one outlier, so every column arrives in the
// same order. Together they show how far the kernel's cost depends on
// its data. Each row runs on the tile kernel this CPU selects (AVX2
// where it has it) and, under "/go", pinned to the pure-Go paths: the
// sortTile network through networkMaxN members, the per-column
// insertion sort past it.
func BenchmarkFilter(b *testing.B) {
	for _, shape := range []struct {
		name    string
		p, trim int
		d       int
	}{{"P=5/trim=1/d=1e5", 5, 1, 100_000}, {"P=10/trim=2/d=13000", 10, 2, 13_000}} {
		spread := benchInputs(b, shape.p, shape.d)
		consensus := make([][]float64, shape.p)
		for i := range consensus {
			consensus[i] = spread[0]
		}
		outlier := make([]float64, shape.d)
		for j := range outlier {
			outlier[j] = 100 + spread[1][j]
		}
		consensus[shape.p/2] = outlier
		for _, cols := range []struct {
			name string
			vecs [][]float64
		}{{"spread", spread}, {"consensus", consensus}} {
			q := Request{Rule: TrimmedMean{Trim: shape.trim}, Views: denseViews(cols.vecs),
				Dst: make([]float64, shape.d), Workers: 1}
			for _, kern := range []struct {
				suffix string
				vec    bool
			}{{"", true}, {"/go", false}} {
				b.Run(shape.name+"/"+cols.name+kern.suffix, func(b *testing.B) {
					defer SetTileAVX2(kern.vec)()
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						benchSink = Run(q).Out
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(shape.d), "ns/coord")
				})
			}
		}
	}
}
