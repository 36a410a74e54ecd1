package aggregate

import (
	"sort"

	"fedms/internal/compress"
)

// NoFuse hides a rule's coordinate kernel (and its loss path), forcing
// Run onto the densify-first fallback through the inner rule's dense
// Aggregate. It is the control arm of the differential and chaos-parity
// tests (and an escape hatch should a fused kernel ever need to be
// bypassed in production). Note that WithWorkers does not see through
// the wrapper; set the inner rule's Workers field explicitly if
// parallelism matters.
type NoFuse struct{ Rule }

// zeroVec returns dst resized to d with every coordinate +0.0 — the
// accumulator state the payload kernels assume (the all-sparse gather
// leaves untouched columns at their initial value).
func zeroVec(dst []float64, d int) []float64 {
	if cap(dst) < d {
		return make([]float64, d)
	}
	out := dst[:d]
	clear(out)
	return out
}

// payloadGatherTile is how many consecutive coordinates a gather
// worker stages at once. The tile keeps the per-worker scratch —
// entry lists in the all-sparse mode, a row buffer in the mixed mode
// — cache-resident instead of allocating d-sized vectors, which is
// the whole point of the fused path.
const payloadGatherTile = 256

// gatherPayloadColumns writes k.reduce(column j) into out[j] for every
// coordinate j, gathering each column across the payload views in
// member order. The chunk partition is forEachCoordChunk's over
// (d, n, k.workers), so the output is bit-identical for every worker
// count. There are three gather modes:
//
//   - all-dense: every view wraps an in-memory vector (DensePayload),
//     and columns are read straight out of the vectors;
//   - all-sparse: columns outside the union support are never
//     materialized and out[j] keeps its +0.0, which every kernel maps
//     the all-zero column to (see coordinateRule);
//   - mixed: each tile of every view is gathered into a row buffer
//     (bounded n·tile, never n·d), and every column reduces.
func gatherPayloadColumns(ps []compress.Payload, d int, out []float64, k kernel) {
	n := len(ps)
	allSparse, allDense := true, true
	for i := range ps {
		_, _, sparse := ps[i].Sparse()
		_, dense := ps[i].Vec()
		allSparse = allSparse && sparse
		allDense = allDense && dense
	}
	forEachCoordChunk(d, n, k.workers, func(lo, hi int) {
		s := getChunkScratch(n, k.winLen)
		switch {
		case allDense:
			gatherDenseChunk(ps, lo, hi, s, out, k)
		case allSparse:
			gatherSparseChunk(ps, lo, hi, s, out, k)
		default:
			gatherMixedChunk(ps, lo, hi, s, out, k)
		}
		putChunkScratch(s)
	})
}

// gatherDenseChunk processes [lo, hi) of an all-DensePayload set: each
// column is read straight out of the wrapped vectors.
func gatherDenseChunk(ps []compress.Payload, lo, hi int, s *chunkScratch, out []float64, k kernel) {
	col := s.col
	vecs := s.vecs[:0]
	for i := range ps {
		v, _ := ps[i].Vec()
		vecs = append(vecs, v)
	}
	for j := lo; j < hi; j++ {
		for i, v := range vecs {
			col[i] = v[j]
		}
		out[j] = k.reduce(col, s)
	}
	clear(vecs) // the pool must not pin the caller's vectors
	s.vecs = vecs
}

// gatherSparseChunk processes [lo, hi) of an all-sparse payload set
// tile by tile. Each tile scatters the views' in-range entries into
// per-column entry lists (one cursor per view — supports are strictly
// increasing, so each view is consumed in one forward pass), then
// reduces only the columns at least one view touched.
func gatherSparseChunk(ps []compress.Payload, lo, hi int, s *chunkScratch, out []float64, k kernel) {
	n := len(ps)
	col := s.col
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
			out[tlo+j] = k.reduce(col, s)
		}
	}
}

// gatherMixedChunk processes [lo, hi) when at least one view is dense
// or quantized: every view gathers its tile slice into a shared row
// buffer (bounded n·tile, never n·d), and every column reduces.
func gatherMixedChunk(ps []compress.Payload, lo, hi int, s *chunkScratch, out []float64, k kernel) {
	n := len(ps)
	col := s.col
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
			out[tlo+j] = k.reduce(col, s)
		}
	}
}
