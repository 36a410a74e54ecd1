package aggregate

import (
	"sync"

	"fedms/internal/par"
)

// minParallelWork is the total work volume (coordinates × inputs, d·n)
// below which the coordinate-chunked rules stay serial: goroutine handoff
// costs more than sorting a few thousand short columns. Gating on the
// volume rather than d alone avoids the small-d regression where a wide
// worker pool fans out over columns that each cost almost nothing (few
// inputs), yet still parallelizes genuinely heavy small-d/large-n
// aggregations. The gate depends only on (d, n), never on the worker count, so it
// cannot break the bit-identity contract.
const minParallelWork = 1 << 18

// forEachCoordChunk invokes fn over par.For's partition of [0, d)
// into one contiguous chunk per worker. n is the number of input
// vectors, used only to size the work-volume gate: workers <= 1 or
// d·n < minParallelWork runs fn(0, d) on the calling goroutine. Each
// invocation owns its chunk exclusively, so fn may write disjoint ranges
// of a shared output without synchronization, and per-coordinate
// arithmetic is identical in every chunking, which keeps rule outputs
// bit-identical for any worker count.
func forEachCoordChunk(d, n, workers int, fn func(lo, hi int)) {
	if d*n < minParallelWork {
		workers = 1
	}
	par.For(d, workers, fn)
}

// chunkScratch is the per-worker scratch of the coordinate-chunked
// rules: a gathered column, a selection window, and the payload-gather
// staging buffers. Pooled so the parallel path stops allocating one set
// per chunk per round — every buffer is fully overwritten before it is
// read, so reuse cannot perturb a seeded run.
type chunkScratch struct {
	col, win []float64
	wcol     []float64   // weighted kernels: per-column mutable weight copy
	pairs    []wpair     // weighted kernels: stable value/weight co-sort
	rows     [][]float64 // payload gather: each member's tile
	rowBuf   []float64   // payload gather: n × tile rows, or sparse entry values
	cnt      []int32     // sparse payload gather: per-column entry counts
	entOwner []int32     // sparse payload gather: tile entry owners
	cur      []int       // sparse payload gather: per-view cursors
}

var chunkScratchPool sync.Pool

func getChunkScratch(n, winLen int) *chunkScratch {
	s, _ := chunkScratchPool.Get().(*chunkScratch)
	if s == nil {
		s = new(chunkScratch)
	}
	s.col = grown(s.col, n)
	s.win = grown(s.win, winLen)
	return s
}

func putChunkScratch(s *chunkScratch) { chunkScratchPool.Put(s) }

// grown returns buf resized to n, reallocated only when its capacity
// falls short; the contents are not cleared.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
