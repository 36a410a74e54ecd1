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
// worker stages at once. The tile keeps the per-worker scratch — a row
// buffer, which the all-sparse mode's column arm fills with entry
// lists — cache-resident instead of allocating d-sized vectors, which is
// the whole point of the fused path.
const payloadGatherTile = 256

// sparseTileMin is how many entries per member an all-sparse gather
// tile must hold, on average, to reduce through the kernel's tile form
// rather than column by column (see gatherSparseChunk). The tile form
// pays for every lane and the column arm for every touched column, so
// the break-even is a density, and it depends on the tile kernel.
// Sweeping topk uploads of trim:0.2 and trim:1 at d = 10⁵ on a 2-vCPU
// Xeon (ns per tile, tile arm vs column arm), the AVX2 kernel breaks
// even at about 2.5 entries per member at n = 3 … 5, 3.5–4.5 at
// n = 6 … 10 and 6 at n = 12 (n = 8: 4 300 vs 3 000 at 2.5 per member,
// 4 500 vs 4 700 at 5, 5 600 vs 21 200 at 25.6, dist_wide_topk's
// servers); the pure-Go network at about 13 (n = 3), 20 (n = 4),
// 24 (n = 5) and 30 (n = 6). The weighted AVX2 kernel also exchanges
// a weight row with every value row, so it breaks even later, and the
// later the more members it sorts, although its column arm is slower
// too: its gate is one entry per n. Sweeping sparse views of uniform
// random support at d = 10⁵ under trim:0.2 (trim:1 at n < 5) and
// weights {1, ½, ⅓} on the same box (ns per tile, tile arm vs column
// arm, the arms interleaved, median of 15), it breaks even at about
// 3.5 entries per member at n = 3, 5.5 at n = 5, 6.5 at n = 8 (5 100
// vs 4 900 at 6, 5 700 vs 6 400 at 7), 8 at n = 10 and 10 at n = 12
// (12 600 vs 6 600 at 5, 10 000 vs 8 400 at 8, 9 900 vs 11 700 at 11);
// an earlier sweep, median of 5, read 3.5, 5.5, 6, 7 and 10. The
// entries round those up and interpolate the n between them. The
// choice cannot show in the output; the gate is a variable only so
// that tests can force either arm.
var sparseTileMin = struct {
	vec, network int
	weighted     [tileVecMaxN + 1]int // by n, for 3 ≤ n ≤ tileVecMaxN
}{vec: 4, network: 20, weighted: [...]int{3: 4, 4: 5, 5: 6, 6: 6, 7: 7, 8: 7, 9: 8, 10: 8, 11: 9, 12: 10}}

// gatherPayloadColumns writes the kernel's aggregate of every
// coordinate j into out[j], gathering each column across the payload
// views in member order. The chunk partition is forEachCoordChunk's
// over (d, n, workers), so the output is bit-identical for every worker
// count. There are two gather modes:
//
//   - all-sparse: each tile takes one of two arms by how many entries
//     the views hold in it (see gatherSparseChunk). A dense enough tile
//     is scattered into rows and reduced through the kernel's tile
//     form; in any other, columns outside the union support are never
//     materialized and out[j] keeps its +0.0, which every kernel maps
//     the all-zero column to (see coordinateRule). Both arms hand the
//     kernel the same columns, so the output cannot show which ran;
//   - staged: every other set — dense, EncDense bytes, quantized or
//     mixed — presents each tile of every view as one row (a DensePayload
//     read in place unless the pure-Go tile sorts it, any other view
//     copied into a row buffer bounded by n·tile, never n·d), and every
//     column reduces: the whole tile at once through the kernel's tile
//     form (the insertion network across the tile's lanes) when it has
//     one, column by column otherwise.
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
// tile by tile, with one cursor per view: supports are strictly
// increasing, so each view is consumed in one forward pass. Each tile
// takes one of two arms, chosen by how many entries the views hold in
// it, and both hand the kernel the same columns — member order, +0.0
// where a view has no entry — so the output cannot show which ran:
//
//   - tile arm (a kernel with a tile form, and at least sparseTileMin
//     entries per member): each view is scattered into its row of the
//     zeroed row buffer and the whole tile reduces at once, as in the
//     staged mode;
//   - column arm (otherwise): the entries go to per-column entry lists
//     and only the columns at least one view touched reduce. The others
//     keep out's +0.0, which every kernel returns for an all-zero
//     column, so a sparse tile pays per touched column, not per lane.
func gatherSparseChunk(ps []compress.Payload, lo, hi int, s *chunkScratch, out []float64, k kernel) {
	n := len(ps)
	col := s.col
	cnt := grown(s.cnt, payloadGatherTile)
	entOwner := grown(s.entOwner, payloadGatherTile*n)
	buf := grown(s.rowBuf, payloadGatherTile*n) // entry values, or the tile arm's rows
	rows := grown(s.rows, n)
	cur := grown(s.cur, n)
	s.cnt, s.entOwner, s.rowBuf, s.rows, s.cur = cnt, entOwner, buf, rows, cur
	for i := range ps {
		idx, _, _ := ps[i].Sparse()
		cur[i] = sort.Search(len(idx), func(j int) bool { return int(idx[j]) >= lo })
	}
	tileMin := sparseTileMin.network * n
	switch {
	case k.tile.weights != nil:
		tileMin = sparseTileMin.weighted[n] * n
	case k.tile.vec:
		tileMin = sparseTileMin.vec * n
	}
	for tlo := lo; tlo < hi; tlo += payloadGatherTile {
		thi := min(tlo+payloadGatherTile, hi)
		w := thi - tlo
		if k.tile.n > 0 && sparseEntriesReach(ps, cur, thi, tileMin) {
			for i := range ps {
				idx, val, _ := ps[i].Sparse()
				row := buf[i*payloadGatherTile : i*payloadGatherTile+w]
				clear(row)
				c := cur[i]
				for ; c < len(idx) && int(idx[c]) < thi; c++ {
					row[int(idx[c])-tlo] = val[c]
				}
				cur[i], rows[i] = c, row
			}
			done := k.tile.reduce(rows, out[tlo:thi])
			reduceColumns(rows, out[tlo:thi], done, k, s)
			continue
		}
		clear(cnt[:w])
		for i := range ps {
			idx, val, _ := ps[i].Sparse()
			c := cur[i]
			for ; c < len(idx) && int(idx[c]) < thi; c++ {
				j := int(idx[c]) - tlo
				e := j*n + int(cnt[j])
				entOwner[e] = int32(i)
				buf[e] = val[c]
				cnt[j]++
			}
			cur[i] = c
		}
		for j := 0; j < w; j++ {
			if cnt[j] == 0 {
				continue // untouched column: out[tlo+j] stays +0.0
			}
			clear(col)
			base := j * n
			for e := 0; e < int(cnt[j]); e++ {
				col[entOwner[base+e]] = buf[base+e]
			}
			out[tlo+j] = k.reduce(col, s)
		}
	}
}

// sparseEntriesReach reports whether the views hold at least want
// entries between their cursors and thi, counting no further than it
// must.
func sparseEntriesReach(ps []compress.Payload, cur []int, thi, want int) bool {
	entries := 0
	for i := range ps {
		idx, _, _ := ps[i].Sparse()
		for c := cur[i]; c < len(idx) && int(idx[c]) < thi; c++ {
			entries++
		}
		if entries >= want {
			return true
		}
	}
	return false
}

// gatherStagedChunk processes [lo, hi) of a set that is not all
// sparse, one tile at a time: rows[i] holds member i's tile. The AVX2
// tile kernel and the per-column fallback only read their rows, so a
// DensePayload's row aliases its vector — every v1 dense downlink frame
// is filtered where it was received — and only the other views are
// copied into the row buffer (bounded n·tile, never n·d) with
// Payload.GatherInto. The pure-Go tile sorts its rows in place, so
// under it every view is copied.
func gatherStagedChunk(ps []compress.Payload, lo, hi int, s *chunkScratch, out []float64, k kernel) {
	n := len(ps)
	buf, rows := grown(s.rowBuf, n*payloadGatherTile), grown(s.rows, n)
	s.rowBuf, s.rows = buf, rows
	for tlo := lo; tlo < hi; tlo += payloadGatherTile {
		thi := min(tlo+payloadGatherTile, hi)
		for i := range ps {
			if v, ok := ps[i].Vec(); ok && (k.tile.n == 0 || k.tile.vec) {
				rows[i] = v[tlo:thi]
				continue
			}
			rows[i] = buf[i*payloadGatherTile : i*payloadGatherTile+thi-tlo]
			ps[i].GatherInto(rows[i], tlo, thi)
		}
		done := 0
		if k.tile.n > 0 {
			done = k.tile.reduce(rows, out[tlo:thi])
		}
		reduceColumns(rows, out[tlo:thi], done, k, s)
	}
	clear(rows) // the pool must not pin the caller's vectors
}

// reduceColumns is the staged gather's per-column fallback: out[j],
// for j from the first lane the tile form left (from) on, is the
// kernel's reduction of the column rows[0][j], rows[1][j], … It is its
// own function so that its loop indices stay in registers: inlined
// into gatherStagedChunk's tile loop, the member index spilled to the
// stack, which cost the P = 10 filter about 8 %.
func reduceColumns(rows [][]float64, out []float64, from int, k kernel, s *chunkScratch) {
	col := s.col[:len(rows)]
	for j := from; j < len(out); j++ {
		for i := range col {
			col[i] = rows[i][j]
		}
		out[j] = k.reduce(col, s)
	}
}
