package data

import (
	"fmt"

	"fedms/internal/randx"
)

// Partition assigns dataset sample indices to K clients.
type Partition [][]int

// NumClients returns the number of clients in the partition.
func (p Partition) NumClients() int { return len(p) }

// TotalSamples returns the number of assigned samples.
func (p Partition) TotalSamples() int {
	n := 0
	for _, idx := range p {
		n += len(idx)
	}
	return n
}

// IIDPartition splits samples uniformly at random into K near-equal
// shards.
func IIDPartition(n, k int, seed uint64) Partition {
	if k <= 0 || n < k {
		panic(fmt.Sprintf("data: IIDPartition needs n >= k > 0, got n=%d k=%d", n, k))
	}
	perm := randx.Perm(randx.Split(seed, "iid-partition"), n)
	parts := make(Partition, k)
	for i, idx := range perm {
		c := i % k
		parts[c] = append(parts[c], idx)
	}
	return parts
}

// DirichletPartition implements the non-iid client split of Hsu et al.
// (2019) used by the paper: for every class, class-sample proportions
// across the K clients are drawn from a symmetric Dirichlet with
// concentration alpha (the paper's D_alpha). Small alpha concentrates
// each class on few clients; alpha -> infinity approaches IID.
//
// Every client is guaranteed at least one sample: leftover-free greedy
// assignment is followed by a rebalancing pass that moves samples from
// the largest clients to empty ones.
func DirichletPartition(labels []int, numClasses, k int, alpha float64, seed uint64) Partition {
	if k <= 0 || len(labels) < k {
		panic(fmt.Sprintf("data: DirichletPartition needs len(labels) >= k > 0, got %d, %d", len(labels), k))
	}
	if alpha <= 0 {
		panic("data: DirichletPartition alpha must be positive")
	}
	r := randx.Split(seed, "dirichlet-partition")

	// Bucket sample indices by class, shuffled within class.
	byClass := make([][]int, numClasses)
	for i, y := range labels {
		if y < 0 || y >= numClasses {
			panic(fmt.Sprintf("data: label %d out of range [0,%d)", y, numClasses))
		}
		byClass[y] = append(byClass[y], i)
	}
	for _, idxs := range byClass {
		randx.Shuffle(r, idxs)
	}

	parts := make(Partition, k)
	for _, idxs := range byClass {
		if len(idxs) == 0 {
			continue
		}
		props := randx.Dirichlet(r, alpha, k)
		// Convert proportions to cumulative sample counts so that the
		// class is fully assigned with no rounding leftovers.
		cum := 0.0
		prevCut := 0
		for c := 0; c < k; c++ {
			cum += props[c]
			cut := int(cum*float64(len(idxs)) + 0.5)
			if c == k-1 {
				cut = len(idxs)
			}
			if cut > len(idxs) {
				cut = len(idxs)
			}
			if cut > prevCut {
				parts[c] = append(parts[c], idxs[prevCut:cut]...)
			}
			prevCut = cut
		}
	}

	rebalanceEmpty(parts, r)
	return parts
}

// rebalanceEmpty moves one sample from the largest client to each empty
// client so every client can train.
func rebalanceEmpty(parts Partition, r *randx.RNG) {
	for c := range parts {
		if len(parts[c]) > 0 {
			continue
		}
		// Find the largest donor.
		donor := -1
		for d := range parts {
			if donor < 0 || len(parts[d]) > len(parts[donor]) {
				donor = d
			}
		}
		if donor < 0 || len(parts[donor]) <= 1 {
			panic("data: cannot rebalance partition; too few samples")
		}
		last := len(parts[donor]) - 1
		pick := r.IntN(last + 1)
		parts[donor][pick], parts[donor][last] = parts[donor][last], parts[donor][pick]
		parts[c] = append(parts[c], parts[donor][last])
		parts[donor] = parts[donor][:last]
	}
}

// LabelHistogram returns the [clients × classes] count matrix of a
// partition — the quantity visualized in the paper's Fig. 4.
func LabelHistogram(parts Partition, labels []int, numClasses int) [][]int {
	hist := make([][]int, len(parts))
	for c, idxs := range parts {
		row := make([]int, numClasses)
		for _, i := range idxs {
			row[labels[i]]++
		}
		hist[c] = row
	}
	return hist
}
