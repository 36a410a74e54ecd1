package aggregate

import (
	"sort"

	"fedms/internal/compress"
)

// NoFuse hides a rule's coordinate kernel (and its loss path), forcing
// Run onto the densify-first fallback through the inner rule's dense
// Aggregate. It is the control arm of the differential and chaos-parity
// tests (and an escape hatch should a fused kernel ever need to be
// bypassed in production).
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
// entry lists in the all-sparse mode, a row buffer in the staged mode
// — cache-resident instead of allocating d-sized vectors, which is
// the whole point of the fused path.
const payloadGatherTile = 256

// gatherPayloadColumns writes the kernel's aggregate of every
// coordinate j into out[j], gathering each column across the payload
// views in member order. The chunk partition is forEachCoordChunk's
// over (d, n, workers), so the output is bit-identical for every worker
// count. There are two gather modes:
//
//   - all-sparse: columns outside the union support are never
//     materialized and out[j] keeps its +0.0, which every kernel maps
//     the all-zero column to (see coordinateRule);
//   - staged: every other set — dense, EncDense bytes, quantized or
//     mixed — stages each tile of every view as one row (copied into a
//     row buffer bounded by n·tile, never n·d), and every column
//     reduces: the whole tile at once through the kernel's tile form
//     (the insertion network across the tile's lanes) when it has one,
//     column by column otherwise.
func gatherPayloadColumns(ps []compress.Payload, d int, out []float64, k kernel, workers int) {
	n := len(ps)
	allSparse := true
	for i := range ps {
		_, _, sparse := ps[i].Sparse()
		allSparse = allSparse && sparse
	}
	forEachCoordChunk(d, n, workers, func(lo, hi int) {
		s := getChunkScratch(n, k.winLen)
		if allSparse {
			gatherSparseChunk(ps, lo, hi, s, out, k)
		} else {
			gatherStagedChunk(ps, lo, hi, s, out, k)
		}
		putChunkScratch(s)
	})
}

// gatherSparseChunk processes [lo, hi) of an all-sparse payload set
// tile by tile. Each tile scatters the views' in-range entries into
// per-column entry lists (one cursor per view — supports are strictly
// increasing, so each view is consumed in one forward pass), then
// reduces only the columns at least one view touched.
func gatherSparseChunk(ps []compress.Payload, lo, hi int, s *chunkScratch, out []float64, k kernel) {
	n := len(ps)
	col := s.col
	cnt := grown(s.cnt, payloadGatherTile)
	entOwner := grown(s.entOwner, payloadGatherTile*n)
	entVal := grown(s.entVal, payloadGatherTile*n)
	cur := grown(s.cur, n)
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

// gatherStagedChunk processes [lo, hi) of a set that is not all
// sparse, one tile at a time: rows[i] holds member i's tile. A kernel
// with a tile form reorders its rows, so every view is copied into the
// row buffer (bounded n·tile, never n·d) with Payload.GatherInto. The
// per-column fallback only reads them, so a DensePayload's row aliases
// its vector and only the other views are copied.
func gatherStagedChunk(ps []compress.Payload, lo, hi int, s *chunkScratch, out []float64, k kernel) {
	n := len(ps)
	buf, rows := grown(s.rowBuf, n*payloadGatherTile), grown(s.rows, n)
	s.rowBuf, s.rows = buf, rows
	for tlo := lo; tlo < hi; tlo += payloadGatherTile {
		thi := min(tlo+payloadGatherTile, hi)
		for i := range ps {
			if v, ok := ps[i].Vec(); ok && k.tile.n == 0 {
				rows[i] = v[tlo:thi]
				continue
			}
			rows[i] = buf[i*payloadGatherTile : i*payloadGatherTile+thi-tlo]
			ps[i].GatherInto(rows[i], tlo, thi)
		}
		if k.tile.n > 0 {
			k.tile.reduce(rows, out[tlo:thi])
		} else {
			reduceColumns(rows, out[tlo:thi], k, s)
		}
	}
	clear(rows) // the pool must not pin the caller's vectors
}

// reduceColumns is the staged gather's per-column fallback: out[j] is
// the kernel's reduction of the column rows[0][j], rows[1][j], … It is
// its own function so that its loop indices stay in registers: inlined
// into gatherStagedChunk's tile loop, the member index spilled to the
// stack, which cost the P = 10 filter about 8 %.
func reduceColumns(rows [][]float64, out []float64, k kernel, s *chunkScratch) {
	col := s.col[:len(rows)]
	for j := range out {
		for i := range col {
			col[i] = rows[i][j]
		}
		out[j] = k.reduce(col, s)
	}
}
