// Package par is the repository's one fork-join: every CPU-parallel
// loop in the tensor kernels, the coordinate-wise aggregation rules and
// the engine's client stages runs through For.
package par

import (
	"sync"
	"sync/atomic"
)

// run is the shared state of one parallel For. Workers claim range
// indices from the atomic counter, so a fan-out costs two heap objects
// (the run and one bound method value) whatever the worker count.
type run struct {
	next     atomic.Int64
	wg       sync.WaitGroup
	n, chunk int
	fn       func(lo, hi int)
}

// work claims and runs ranges until the partition is exhausted.
func (r *run) work() {
	for {
		lo := int(r.next.Add(1)-1) * r.chunk
		if lo >= r.n {
			return
		}
		r.fn(lo, min(lo+r.chunk, r.n))
	}
}

func (r *run) spawned() {
	r.work()
	r.wg.Done()
}

// For calls fn over a partition of [0, n) into contiguous ranges of
// ceil(n/workers) indices each (the last may be shorter) and returns
// once every call has. workers ≤ 1 or n ≤ 1 makes one fn(0, n) call on
// the calling goroutine. Otherwise up to workers-1 goroutines and the
// caller claim ranges until none is left, so fn must be safe for
// concurrent calls on disjoint ranges; fn escapes, so a hot serial
// caller below its own work gate should call its body directly.
//
// The partition is a pure function of (n, workers); only which
// goroutine runs a range is dynamic. A caller whose fn computes each
// index independently of the range bounds and writes only its own
// range therefore produces the same bits for every worker count.
func For(n, workers int, fn func(lo, hi int)) {
	workers = min(workers, n)
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	ranges := (n + chunk - 1) / chunk
	r := &run{n: n, chunk: chunk, fn: fn}
	r.wg.Add(ranges - 1)
	body := r.spawned
	for i := 1; i < ranges; i++ {
		go body()
	}
	r.work() // the caller is a worker too
	r.wg.Wait()
}
