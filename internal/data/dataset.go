// Package data provides the datasets and client partitioners of the
// Fed-MS evaluation.
//
// The paper trains on CIFAR-10; this offline reproduction substitutes two
// deterministic synthetic datasets with the same interface contract
// (10-way classification, image-shaped or feature-shaped inputs):
//
//   - SynthImage: procedurally generated class-patterned images. Each
//     class has a distinctive frequency/orientation texture; samples add
//     per-sample noise, spatial jitter and brightness shifts. A
//     convolutional model is required to reach high accuracy, mirroring
//     the CIFAR-10 + MobileNet V2 pairing.
//   - Blobs: a Gaussian-mixture feature dataset; fast enough for the
//     60-round × 50-client federated sweeps on a single CPU core.
//
// Client heterogeneity follows the paper: a Dirichlet(D_alpha) split
// over class proportions (Hsu et al., 2019).
package data

import (
	"fmt"

	"fedms/internal/tensor"
)

// Dataset is an in-memory supervised dataset. X has shape
// [N, ...sample dims...]; Y holds integer class labels.
type Dataset struct {
	X          *tensor.Dense
	Y          []int
	NumClasses int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Dim(0) }

// SampleLen returns the flattened per-sample element count.
func (d *Dataset) SampleLen() int { return d.X.Len() / d.Len() }

// Subset returns a new dataset view containing the given sample indices
// (data copied, so subsets are independent).
func (d *Dataset) Subset(indices []int) *Dataset {
	shape := d.X.Shape()
	shape[0] = len(indices)
	sub := tensor.New(shape...)
	y := make([]int, len(indices))
	d.gather(sub.Data(), y, indices)
	return &Dataset{X: sub, Y: y, NumClasses: d.NumClasses}
}

// gather copies the samples at indices into x and their labels into y,
// in order.
func (d *Dataset) gather(x []float64, y []int, indices []int) {
	sampleLen := d.SampleLen()
	src := d.X.Data()
	for i, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			panic(fmt.Sprintf("data: subset index %d out of range [0,%d)", idx, d.Len()))
		}
		copy(x[i*sampleLen:(i+1)*sampleLen], src[idx*sampleLen:(idx+1)*sampleLen])
		y[i] = d.Y[idx]
	}
}

// Batch copies the samples at the given indices into a contiguous batch
// tensor and returns it with the matching labels.
func (d *Dataset) Batch(indices []int) (*tensor.Dense, []int) {
	sub := d.Subset(indices)
	return sub.X, sub.Y
}

// ClassCounts returns the number of samples per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// Split partitions the dataset into a train and test set at the given
// train fraction, preserving sample order (generators already shuffle).
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic("data: trainFrac must be in (0,1)")
	}
	n := d.Len()
	cut := int(float64(n) * trainFrac)
	trainIdx := make([]int, cut)
	testIdx := make([]int, n-cut)
	for i := 0; i < cut; i++ {
		trainIdx[i] = i
	}
	for i := cut; i < n; i++ {
		testIdx[i-cut] = i
	}
	return d.Subset(trainIdx), d.Subset(testIdx)
}
