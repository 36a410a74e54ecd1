package aggregate

import (
	"fmt"
	"sort"

	"fedms/internal/compress"
	"fedms/internal/tensor"
)

// PayloadRule is a Rule that can aggregate codec payload views
// directly, without densifying each input first. The contract is
// strict bit-identity: AggregatePayloads(ps) must equal
// Aggregate([densify(p) for p in ps]) coordinate for coordinate at
// the float64-bit level, for every mix of encodings, worker count and
// input count. The differential tier in payload_contract_test.go is
// the enforcement.
type PayloadRule interface {
	Rule
	// AggregatePayloads returns a fresh vector; it must not retain or
	// mutate the views. All views have equal Dim and there is at least
	// one.
	AggregatePayloads(ps []compress.Payload) []float64
}

// AggregatePayloads aggregates payload views under rule r: the fused
// path when r implements PayloadRule, otherwise densify-first through
// r.Aggregate. fused reports which path ran, for the runtime's
// fused-vs-fallback counters.
func AggregatePayloads(r Rule, ps []compress.Payload) (out []float64, fused bool) {
	if pr, ok := r.(PayloadRule); ok {
		return pr.AggregatePayloads(ps), true
	}
	checkPayloads(ps, r.Name())
	return r.Aggregate(densify(ps)), false
}

// PayloadRuleInto is the reusable-output counterpart of PayloadRule:
// AggregatePayloadsInto(dst, ps) returns exactly the bytes
// AggregatePayloads(ps) would, stored in dst when its capacity
// suffices.
type PayloadRuleInto interface {
	PayloadRule
	AggregatePayloadsInto(dst []float64, ps []compress.Payload) []float64
}

// AggregatePayloadsInto is AggregatePayloads with a caller-provided
// output buffer: the fused in-place path when r implements
// PayloadRuleInto, otherwise densify-first through AggregateInto (which
// still reuses dst for RuleInto rules). The returned slice holds the
// aggregate; dst is reused when possible but callers must use the
// return value.
func AggregatePayloadsInto(r Rule, dst []float64, ps []compress.Payload) (out []float64, fused bool) {
	if pr, ok := r.(PayloadRuleInto); ok {
		return pr.AggregatePayloadsInto(dst, ps), true
	}
	if _, ok := r.(PayloadRule); ok {
		return AggregatePayloads(r, ps)
	}
	checkPayloads(ps, r.Name())
	return AggregateInto(r, dst, densify(ps)), false
}

// NoFuse hides a rule's fused path, forcing AggregatePayloads onto
// the densify-first fallback. It is the control arm of the
// differential and chaos-parity tests (and an escape hatch should a
// fused kernel ever need to be bypassed in production). Note that
// WithWorkers does not see through the wrapper; set the inner rule's
// Workers field explicitly if parallelism matters.
type NoFuse struct{ Rule }

func checkPayloads(ps []compress.Payload, rule string) int {
	if len(ps) == 0 {
		panic(fmt.Sprintf("aggregate: %s on empty input", rule))
	}
	d := ps[0].Dim()
	for i := range ps {
		if ps[i].Dim() != d {
			panic(fmt.Sprintf("aggregate: %s input %d has dim %d, want %d", rule, i, ps[i].Dim(), d))
		}
	}
	return d
}

// AggregatePayloads implements PayloadRule. It replicates VecMean's
// exact arithmetic — zeroed accumulator, one AddTo per input in
// order, then one multiply by 1/n — while sparse inputs touch only
// their support (see compress.Payload.AddTo for the bit-identity
// argument).
func (m Mean) AggregatePayloads(ps []compress.Payload) []float64 {
	return m.AggregatePayloadsInto(nil, ps)
}

// AggregatePayloadsInto implements PayloadRuleInto.
func (Mean) AggregatePayloadsInto(dst []float64, ps []compress.Payload) []float64 {
	d := checkPayloads(ps, "mean")
	out := zeroVec(dst, d)
	for i := range ps {
		ps[i].AddTo(out)
	}
	tensor.VecScale(out, 1/float64(len(ps)))
	return out
}

// AggregatePayloads implements PayloadRule via the column-gather
// path: coordinate chunks are distributed over the same
// forEachCoordChunk partition as Aggregate, and each chunk gathers
// its columns straight out of the payload views.
func (t TrimmedMean) AggregatePayloads(ps []compress.Payload) []float64 {
	return t.AggregatePayloadsInto(nil, ps)
}

// AggregatePayloadsInto implements PayloadRuleInto.
func (t TrimmedMean) AggregatePayloadsInto(dst []float64, ps []compress.Payload) []float64 {
	d := checkPayloads(ps, "trimmed_mean")
	m := t.TrimCount(len(ps))
	out := zeroVec(dst, d)
	gatherPayloadColumns(ps, d, t.Workers, out, 2*m, func(col, win []float64) float64 {
		return trimmedMeanOf(col, m, win)
	})
	return out
}

// AggregatePayloads implements PayloadRule (column-gather path, see
// TrimmedMean.AggregatePayloads).
func (c CoordinateMedian) AggregatePayloads(ps []compress.Payload) []float64 {
	return c.AggregatePayloadsInto(nil, ps)
}

// AggregatePayloadsInto implements PayloadRuleInto.
func (c CoordinateMedian) AggregatePayloadsInto(dst []float64, ps []compress.Payload) []float64 {
	d := checkPayloads(ps, "median")
	n := len(ps)
	out := zeroVec(dst, d)
	gatherPayloadColumns(ps, d, c.Workers, out, 0, func(col, _ []float64) float64 {
		sortColumn(col)
		if n%2 == 1 {
			return col[n/2]
		}
		return 0.5 * (col[n/2-1] + col[n/2])
	})
	return out
}

// zeroVec returns dst resized to d with every coordinate +0.0 — the
// accumulator state the payload kernels assume (the all-sparse gather
// leaves untouched columns at their initial value).
func zeroVec(dst []float64, d int) []float64 {
	out := ensureVec(dst, d)
	for i := range out {
		out[i] = 0
	}
	return out
}

// payloadGatherTile is how many consecutive coordinates a gather
// worker stages at once. The tile keeps the per-worker scratch —
// entry lists in the all-sparse mode, a row buffer in the mixed mode
// — cache-resident instead of allocating d-sized vectors, which is
// the whole point of the fused path.
const payloadGatherTile = 256

// gatherPayloadColumns writes reduce(column j) into out[j] for every
// coordinate j, gathering each column across the payload views. The
// chunk partition, and therefore the bit pattern of every result, is
// identical to the dense rules': forEachCoordChunk with the same
// (d, n, workers).
//
// When every view is sparse, columns outside the union support are
// never materialized: out[j] keeps its +0.0. That requires reduce to
// map the all-zero column to exactly +0.0 — true for trimmed mean
// (every sum of +0.0s divided by the kept count) and median (middle
// of an all-+0.0 column), the two rules on this path.
func gatherPayloadColumns(ps []compress.Payload, d, workers int, out []float64, winLen int, reduce func(col, win []float64) float64) {
	gatherPayloadColumnsScratch(ps, d, workers, out, winLen, func(col, win []float64, _ *chunkScratch) float64 {
		return reduce(col, win)
	})
}

// gatherPayloadColumnsScratch is gatherPayloadColumns with the chunk
// worker's scratch threaded into reduce, for kernels (the weighted
// variants) that need extra per-worker mutable state beyond col/win.
func gatherPayloadColumnsScratch(ps []compress.Payload, d, workers int, out []float64, winLen int, reduce func(col, win []float64, s *chunkScratch) float64) {
	n := len(ps)
	allSparse := true
	for i := range ps {
		if _, _, ok := ps[i].Sparse(); !ok {
			allSparse = false
			break
		}
	}
	forEachCoordChunk(d, n, workers, func(lo, hi int) {
		s := getChunkScratch(n, winLen)
		if allSparse {
			gatherSparseChunk(ps, lo, hi, s, out, reduce)
		} else {
			gatherMixedChunk(ps, lo, hi, s, out, reduce)
		}
		putChunkScratch(s)
	})
}

// gatherSparseChunk processes [lo, hi) of an all-sparse payload set
// tile by tile. Each tile scatters the views' in-range entries into
// per-column entry lists (one cursor per view — supports are strictly
// increasing, so each view is consumed in one forward pass), then
// reduces only the columns at least one view touched.
func gatherSparseChunk(ps []compress.Payload, lo, hi int, s *chunkScratch, out []float64, reduce func(col, win []float64, s *chunkScratch) float64) {
	n := len(ps)
	col, win := s.col, s.win
	cnt := grownInt32s(s.cnt, payloadGatherTile)
	entOwner := grownInt32s(s.entOwner, payloadGatherTile*n)
	entVal := grownFloats(s.entVal, payloadGatherTile*n)
	cur := grownInts(s.cur, n)
	s.cnt, s.entOwner, s.entVal, s.cur = cnt, entOwner, entVal, cur
	for i := range ps {
		idx, _, _ := ps[i].Sparse()
		cur[i] = sort.Search(len(idx), func(j int) bool { return int(idx[j]) >= lo })
	}
	for tlo := lo; tlo < hi; tlo += payloadGatherTile {
		thi := tlo + payloadGatherTile
		if thi > hi {
			thi = hi
		}
		w := thi - tlo
		for j := 0; j < w; j++ {
			cnt[j] = 0
		}
		for i := range ps {
			idx, val, _ := ps[i].Sparse()
			c := cur[i]
			for c < len(idx) && int(idx[c]) < thi {
				j := int(idx[c]) - tlo
				e := j*n + int(cnt[j])
				entOwner[e] = int32(i)
				entVal[e] = val[c]
				cnt[j]++
				c++
			}
			cur[i] = c
		}
		for j := 0; j < w; j++ {
			if cnt[j] == 0 {
				continue // untouched column: out[tlo+j] stays +0.0
			}
			for i := range col {
				col[i] = 0
			}
			base := j * n
			for e := 0; e < int(cnt[j]); e++ {
				col[entOwner[base+e]] = entVal[base+e]
			}
			out[tlo+j] = reduce(col, win, s)
		}
	}
}

// gatherMixedChunk processes [lo, hi) when at least one view is dense
// or quantized: every view gathers its tile slice into a shared row
// buffer (bounded n·tile, never n·d), and every column reduces.
func gatherMixedChunk(ps []compress.Payload, lo, hi int, s *chunkScratch, out []float64, reduce func(col, win []float64, s *chunkScratch) float64) {
	n := len(ps)
	col, win := s.col, s.win
	rows := grownFloats(s.rows, n*payloadGatherTile)
	s.rows = rows
	for tlo := lo; tlo < hi; tlo += payloadGatherTile {
		thi := tlo + payloadGatherTile
		if thi > hi {
			thi = hi
		}
		w := thi - tlo
		for i := range ps {
			ps[i].GatherInto(rows[i*payloadGatherTile:i*payloadGatherTile+w], tlo, thi)
		}
		for j := 0; j < w; j++ {
			for i := 0; i < n; i++ {
				col[i] = rows[i*payloadGatherTile+j]
			}
			out[tlo+j] = reduce(col, win, s)
		}
	}
}

var (
	_ PayloadRule = Mean{}
	_ PayloadRule = TrimmedMean{}
	_ PayloadRule = CoordinateMedian{}

	_ PayloadRuleInto = Mean{}
	_ PayloadRuleInto = TrimmedMean{}
	_ PayloadRuleInto = CoordinateMedian{}
)
