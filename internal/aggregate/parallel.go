package aggregate

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minParallelWork is the total work volume (coordinates × inputs, d·n)
// below which the coordinate-chunked rules stay serial: goroutine handoff
// costs more than sorting a few thousand short columns. Gating on the
// volume rather than d alone avoids the small-d regression where a wide
// worker pool fans out over columns that each cost almost nothing (few
// inputs), yet still parallelizes genuinely heavy small-d/large-n
// aggregations. The gate depends only on (d, n), never on Workers, so it
// cannot break the bit-identity contract.
const minParallelWork = 1 << 18

// coordChunkRun is the shared state of one parallel forEachCoordChunk
// invocation. Workers claim chunk indices from the atomic counter, so
// the whole fan-out costs two heap objects (the run state and one bound
// method value) instead of a closure per spawned goroutine — the
// parallel path's fixed allocations now match the serial path's to
// within a couple of objects regardless of worker count.
type coordChunkRun struct {
	next     atomic.Int64
	wg       sync.WaitGroup
	d, chunk int
	fn       func(lo, hi int)
}

// work claims and processes chunks until the partition is exhausted.
func (r *coordChunkRun) work() {
	for {
		lo := int(r.next.Add(1)-1) * r.chunk
		if lo >= r.d {
			return
		}
		hi := lo + r.chunk
		if hi > r.d {
			hi = r.d
		}
		r.fn(lo, hi)
	}
}

func (r *coordChunkRun) spawned() {
	r.work()
	r.wg.Done()
}

// forEachCoordChunk invokes fn over a partition of [0, d) into
// contiguous chunks, one per worker. n is the number of input
// vectors, used only to size the work-volume gate: workers <= 1 or
// d·n < minParallelWork runs fn(0, d) on the calling goroutine. Each
// invocation owns its chunk exclusively, so fn may write disjoint ranges
// of a shared output without synchronization. The chunk partition is a
// pure function of (d, workers) — which worker executes a chunk is
// dynamic, but per-coordinate arithmetic is identical in every chunking,
// which keeps rule outputs bit-identical for any worker count.
func forEachCoordChunk(d, n, workers int, fn func(lo, hi int)) {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > d {
		workers = d
	}
	if workers <= 1 || d*n < minParallelWork {
		fn(0, d)
		return
	}
	chunk := (d + workers - 1) / workers
	nchunks := (d + chunk - 1) / chunk
	r := &coordChunkRun{d: d, chunk: chunk, fn: fn}
	r.wg.Add(nchunks - 1)
	body := r.spawned
	for i := 1; i < nchunks; i++ {
		go body()
	}
	r.work() // the caller is a worker too
	r.wg.Wait()
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
	vecs     [][]float64 // dense payload gather: the wrapped vectors
	rows     []float64   // mixed payload gather: n × tile row buffer
	entVal   []float64   // sparse payload gather: tile entry values
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
	s.col = grownFloats(s.col, n)
	s.win = grownFloats(s.win, winLen)
	return s
}

func putChunkScratch(s *chunkScratch) { chunkScratchPool.Put(s) }

func grownFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func grownInt32s(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func grownInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// WithWorkers returns a copy of rule configured to aggregate with the
// given worker bound, for rules that support coordinate-parallel
// execution; other rules — and rules whose Workers field is already
// set — are returned unchanged. Outputs are bit-identical across worker
// counts, so this is safe to apply unconditionally.
func WithWorkers(r Rule, workers int) Rule {
	switch t := r.(type) {
	case TrimmedMean:
		if t.Workers == 0 {
			t.Workers = workers
		}
		return t
	case CoordinateMedian:
		if t.Workers == 0 {
			t.Workers = workers
		}
		return t
	}
	return r
}
