package aggregate

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fedms/internal/compress"
)

// This file is the two-tier aggregation tree (DESIGN.md §6): a shard
// router partitions the coordinate space [0, d) into S contiguous
// shards, uploads stream through S bounded queues, and each shard
// incrementally transposes its column range into a bounded column-major
// block on its own goroutine. When the input set is complete the shard
// runs the same per-coordinate kernels as the unsharded rules
// (trimmedMeanOf, sortColumn, the ordered mean sum) over its range, and
// the root accumulator is simply the shared output vector the shards'
// disjoint ranges concatenate into.
//
// The contract is strict bit-identity with the unsharded path, by
// construction rather than by tolerance:
//
//   - Rows are sorted by member id before reduction, so every
//     coordinate's column is gathered in exactly the ascending-id order
//     the engine and PS aggregate in.
//   - The per-coordinate kernels are the unsharded rules' own: the trim
//     count, selection-path choice and sort routine are pure functions
//     of (n, m) and never of the shard geometry.
//   - An all-sparse shard leaves untouched columns at +0.0, matching
//     gatherSparseChunk; for the shardable rules the kernel of an
//     all-zero column is exactly +0.0, so skipping is exact.
//
// Memory per shard is O(K·d/S): a capRows × width column-major block
// for dense/quantized rows plus an entry arena holding only the
// in-range support of sparse rows — with topk payloads no block is
// ever allocated and the shard holds only the support. No site holds
// the full K×d matrix.

// shardQueueDepth bounds each shard's ingest queue. A full queue blocks
// offer — the router's backpressure — so a slow shard throttles intake
// instead of buffering unboundedly.
const shardQueueDepth = 64

// shardMsg is one routed upload: the member id that orders the row at
// reduce time, the payload view to transpose, and the row's
// aggregation weight (1 on the unweighted path).
type shardMsg struct {
	id int
	p  compress.Payload
	w  float64
}

// shardRow records one ingested row of a shard: dense rows live in the
// column-major block at slot, sparse rows own the arena entry range
// [start, end). w is the row's aggregation weight.
type shardRow struct {
	id    int
	slot  int // block column slot; -1 for sparse rows
	start int
	end   int
	w     float64
}

// shardRowBytes is the accounting size of one shardRow (four ints plus
// the weight).
const shardRowBytes = 40

// shardTree streams member payloads through a coordinate-sharded
// aggregation tree for one aggregation (Run builds one per sharded
// request). offer is called from a single goroutine; finalize completes
// the tree. A shardTree is one-shot.
type shardTree struct {
	rule     Rule
	d        int
	weighted bool
	queues   []chan shardMsg
	wg       sync.WaitGroup
	out      []float64
	peak     atomic.Int64
}

// ShardableRule reports whether rule r has a coordinate-sharded path:
// the per-coordinate rules Mean, TrimmedMean and CoordinateMedian.
// Selection and loss rules score whole vectors and fall back to the
// unsharded path, as does a NoFuse wrapper (sharding is a fused-style
// path, and NoFuse is the escape hatch that disables those).
func ShardableRule(r Rule) bool {
	switch r.(type) {
	case Mean, TrimmedMean, CoordinateMedian:
		return true
	}
	return false
}

// newShardTree builds the shard tree for rule r over dimension d with
// at most shards shards (never more than d). rowsHint, when positive,
// presizes each shard for that many member rows; weighted selects the
// weighted per-coordinate kernels (bit-identical to the unweighted ones
// at weight ≡ 1). ok is false — and the caller must use the unsharded
// path — when the rule is not shardable or the geometry degenerates
// (shards <= 1 or d == 0).
func newShardTree(r Rule, d, shards, rowsHint int, weighted bool) (*shardTree, bool) {
	if !ShardableRule(r) || shards <= 1 || d <= 0 {
		return nil, false
	}
	if shards > d {
		shards = d
	}
	width := (d + shards - 1) / shards
	s := &shardTree{rule: r, d: d, weighted: weighted}
	for lo := 0; lo < d; lo += width {
		hi := lo + width
		if hi > d {
			hi = d
		}
		sh := &aggShard{parent: s, lo: lo, hi: hi, rowsHint: rowsHint}
		q := make(chan shardMsg, shardQueueDepth)
		s.queues = append(s.queues, q)
		s.wg.Add(1)
		go sh.run(q)
	}
	return s, true
}

// offer routes one member's payload, with its aggregation weight (1 on
// an unweighted tree), to every shard. It blocks when a shard's queue
// is full — backpressure, not loss. The payload view (and its backing
// buffer) must stay valid until finalize returns. Member ids must be
// unique; rows are ordered by ascending id at reduce time regardless of
// arrival order. Run has already validated dimensions and weights.
func (s *shardTree) offer(id int, p compress.Payload, w float64) {
	for i := range s.queues {
		s.queues[i] <- shardMsg{id: id, p: p, w: w}
	}
}

// finalize completes the stream: every shard reduces its column range
// as soon as it drains its queue, and the concatenated result — stored
// in dst when its capacity suffices — is returned. Bit-identical to the
// unsharded rule over the same rows in ascending-id order. After it
// returns, peak holds the largest accumulator footprint any single
// shard reached — block, entry arena, row records and gather scratch:
// the measured side of the O(K·d/S) memory bound.
func (s *shardTree) finalize(dst []float64) []float64 {
	out := zeroVec(dst, s.d)
	s.out = out // published to the shard goroutines by the closes below
	for i := range s.queues {
		close(s.queues[i])
	}
	s.wg.Wait()
	return out
}

// aggShard owns one contiguous coordinate range [lo, hi).
type aggShard struct {
	parent   *shardTree
	lo, hi   int
	rowsHint int

	rows    []shardRow
	block   []float64 // column-major: block[jl*capRows + slot]
	capRows int
	nslots  int
	entIdx  []uint32 // sparse entry arena: range-local coordinates
	entVal  []float64
	scratch []float64 // width-sized dense gather scratch
}

// run is the shard goroutine: ingest every routed row, then reduce the
// completed column range into the shared output.
func (sh *aggShard) run(q chan shardMsg) {
	defer sh.parent.wg.Done()
	for msg := range q {
		sh.ingest(msg)
	}
	sh.reduce(sh.parent.out)
	// Record this shard's peak accumulator footprint.
	mem := int64(8*cap(sh.block)) + int64(4*cap(sh.entIdx)) + int64(8*cap(sh.entVal)) +
		int64(shardRowBytes*cap(sh.rows)) + int64(8*cap(sh.scratch))
	for {
		cur := sh.parent.peak.Load()
		if mem <= cur || sh.parent.peak.CompareAndSwap(cur, mem) {
			return
		}
	}
}

// ingest transposes one row into the shard's accumulators: sparse rows
// append their in-range support to the entry arena, every other
// encoding gathers its range and scatters it into the column-major
// block.
func (sh *aggShard) ingest(msg shardMsg) {
	if sh.rows == nil && sh.rowsHint > 0 {
		sh.rows = make([]shardRow, 0, sh.rowsHint)
	}
	if idx, val, ok := msg.p.Sparse(); ok {
		start := len(sh.entIdx)
		c := sort.Search(len(idx), func(i int) bool { return int(idx[i]) >= sh.lo })
		for ; c < len(idx) && int(idx[c]) < sh.hi; c++ {
			sh.entIdx = append(sh.entIdx, idx[c]-uint32(sh.lo))
			sh.entVal = append(sh.entVal, val[c])
		}
		sh.rows = append(sh.rows, shardRow{id: msg.id, slot: -1, start: start, end: len(sh.entIdx), w: msg.w})
		return
	}
	width := sh.hi - sh.lo
	if sh.scratch == nil {
		sh.scratch = make([]float64, width)
	}
	if sh.nslots == sh.capRows {
		sh.growBlock(width)
	}
	slot := sh.nslots
	sh.nslots++
	msg.p.GatherInto(sh.scratch, sh.lo, sh.hi)
	for jl, v := range sh.scratch {
		sh.block[jl*sh.capRows+slot] = v
	}
	sh.rows = append(sh.rows, shardRow{id: msg.id, slot: slot, w: msg.w})
}

// growBlock doubles the block's row capacity, re-striding the existing
// columns.
func (sh *aggShard) growBlock(width int) {
	newCap := sh.capRows * 2
	if newCap == 0 {
		newCap = 64
		if sh.rowsHint > 0 {
			newCap = sh.rowsHint
		}
	}
	next := make([]float64, width*newCap)
	for jl := 0; jl < width; jl++ {
		copy(next[jl*newCap:jl*newCap+sh.nslots], sh.block[jl*sh.capRows:jl*sh.capRows+sh.nslots])
	}
	sh.block, sh.capRows = next, newCap
}

// reduce runs the rule's per-coordinate kernel over the completed
// column range, writing out[lo:hi]. Rows are ordered by ascending id
// first so each gathered column matches the unsharded member order bit
// for bit.
func (sh *aggShard) reduce(out []float64) {
	n := len(sh.rows)
	sort.Slice(sh.rows, func(a, b int) bool { return sh.rows[a].id < sh.rows[b].id })
	kernel, winLen := shardKernel(sh.parent.rule, n)
	width := sh.hi - sh.lo
	s := getChunkScratch(n, winLen)
	if sh.parent.weighted {
		// Row weights in sorted order; a fresh slice, not chunk scratch,
		// because the weighted kernels use s.wcol for their own copies.
		wrow := make([]float64, n)
		for i := range sh.rows {
			wrow[i] = sh.rows[i].w
		}
		kernel = weightedShardKernel(sh.parent.rule, wrow, s)
	}
	col, win := s.col, s.win
	curs := grownInts(s.cur, n)
	s.cur = curs
	for i := range curs {
		curs[i] = 0
	}
	if sh.nslots == 0 {
		// All-sparse: count per-column entries once, reduce only touched
		// columns; untouched columns keep the output's +0.0, exactly as
		// the unsharded sparse gather leaves them.
		cnt := grownInt32s(s.cnt, width)
		s.cnt = cnt
		for j := range cnt {
			cnt[j] = 0
		}
		for _, e := range sh.entIdx {
			cnt[e]++
		}
		for jl := 0; jl < width; jl++ {
			if cnt[jl] == 0 {
				continue
			}
			sh.gatherColumn(col, curs, jl)
			out[sh.lo+jl] = kernel(col, win)
		}
	} else {
		for jl := 0; jl < width; jl++ {
			sh.gatherColumn(col, curs, jl)
			out[sh.lo+jl] = kernel(col, win)
		}
	}
	putChunkScratch(s)
}

// gatherColumn fills col with coordinate lo+jl of every row in sorted
// order: dense rows read their block slot, sparse rows consume their
// next arena entry when it matches (columns are visited in ascending
// order, so one forward cursor per row suffices).
func (sh *aggShard) gatherColumn(col []float64, curs []int, jl int) {
	for i := range sh.rows {
		r := &sh.rows[i]
		if r.slot >= 0 {
			col[i] = sh.block[jl*sh.capRows+r.slot]
			continue
		}
		v := 0.0
		if c := r.start + curs[i]; c < r.end && sh.entIdx[c] == uint32(jl) {
			v = sh.entVal[c]
			curs[i]++
		}
		col[i] = v
	}
}

// shardKernel returns the per-coordinate kernel of a shardable rule for
// n inputs, plus the selection-window scratch length it needs. The
// kernels are the unsharded rules' own per-coordinate arithmetic:
// TrimCount, the selection path and the sort are pure functions of
// (n, m), and the mean multiplies the ascending-order sum by the same
// 1/n the fused path scales by.
func shardKernel(r Rule, n int) (kernel func(col, win []float64) float64, winLen int) {
	switch t := r.(type) {
	case Mean:
		inv := 1 / float64(n)
		return func(col, _ []float64) float64 {
			s := 0.0
			for _, v := range col {
				s += v
			}
			return s * inv
		}, 0
	case TrimmedMean:
		m := t.TrimCount(n)
		return func(col, win []float64) float64 {
			return trimmedMeanOf(col, m, win)
		}, 2 * m
	case CoordinateMedian:
		return func(col, _ []float64) float64 {
			sortColumn(col)
			if n%2 == 1 {
				return col[n/2]
			}
			return 0.5 * (col[n/2-1] + col[n/2])
		}, 0
	}
	panic(fmt.Sprintf("aggregate: shardKernel on unshardable rule %s", r.Name()))
}

// weightedShardKernel returns the weighted per-coordinate kernel over
// rows weighted by wrow (sorted-row order). The closures capture the
// shard goroutine's own scratch, so they are race-free, and they
// mirror the unweighted kernels' arithmetic exactly at weight ≡ 1
// (same scan order, same single reciprocal for the mean). The window
// length matches shardKernel's for the same (rule, n).
func weightedShardKernel(r Rule, wrow []float64, s *chunkScratch) func(col, win []float64) float64 {
	n := len(wrow)
	switch t := r.(type) {
	case Mean:
		wsum := 0.0
		for _, w := range wrow {
			wsum += w
		}
		inv := 1 / wsum
		return func(col, _ []float64) float64 {
			sum := 0.0
			for i, v := range col {
				sum += wrow[i] * v
			}
			return sum * inv
		}
	case TrimmedMean:
		m := t.TrimCount(n)
		return func(col, win []float64) float64 {
			return weightedTrimmedMeanOf(col, wrow, m, win, s)
		}
	case CoordinateMedian:
		return func(col, _ []float64) float64 {
			return weightedMedianOf(col, wrow, s)
		}
	}
	panic(fmt.Sprintf("aggregate: weightedShardKernel on unshardable rule %s", r.Name()))
}
