package data

import (
	"fedms/internal/randx"
	"fedms/internal/tensor"
)

// Batcher draws mini-batches from a dataset with its own deterministic
// RNG. It matches the paper's local-training step: "randomly sample a
// mini-batch ξ from D_k" — sampling is with replacement across calls and
// without replacement within a batch.
type Batcher struct {
	ds        *Dataset
	batchSize int
	rng       *randx.RNG
	scratch   []int

	// Reused by every Next: the partial Fisher-Yates index map and the
	// batch it returns.
	seen map[int]int
	x    *tensor.Dense
	y    []int
}

// NewBatcher constructs a batcher over ds. batchSize is clamped to the
// dataset size.
func NewBatcher(ds *Dataset, batchSize int, rng *randx.RNG) *Batcher {
	if batchSize <= 0 {
		panic("data: batch size must be positive")
	}
	if batchSize > ds.Len() {
		batchSize = ds.Len()
	}
	shape := ds.X.Shape()
	shape[0] = batchSize
	return &Batcher{
		ds:        ds,
		batchSize: batchSize,
		rng:       rng,
		scratch:   make([]int, batchSize),
		seen:      make(map[int]int, 2*batchSize),
		x:         tensor.New(shape...),
		y:         make([]int, batchSize),
	}
}

// BatchSize returns the effective batch size.
func (b *Batcher) BatchSize() int { return b.batchSize }

// Next returns one random mini-batch. The batch tensor and label slice
// are the batcher's own and the next call overwrites them: a batch is
// valid until the next Next.
func (b *Batcher) Next() (*tensor.Dense, []int) {
	n := b.ds.Len()
	if b.batchSize == n {
		for i := range b.scratch {
			b.scratch[i] = i
		}
	} else {
		// Sample without replacement within the batch via partial
		// Fisher-Yates over a lazily materialized index set.
		seen := b.seen
		clear(seen)
		for i := 0; i < b.batchSize; i++ {
			j := i + b.rng.IntN(n-i)
			vi, oki := seen[i]
			if !oki {
				vi = i
			}
			vj, okj := seen[j]
			if !okj {
				vj = j
			}
			b.scratch[i] = vj
			seen[j] = vi
			seen[i] = vj
		}
	}
	b.ds.gather(b.x.Data(), b.y, b.scratch)
	return b.x, b.y
}
