package data

import (
	"math"
	"testing"
	"testing/quick"

	"fedms/internal/nn"
	"fedms/internal/randx"
	"fedms/internal/tensor"
)

func TestSynthImageShapeAndBalance(t *testing.T) {
	ds := SynthImage(SynthImageConfig{Samples: 200, Seed: 1})
	if ds.Len() != 200 {
		t.Fatalf("Len = %d", ds.Len())
	}
	shape := ds.X.Shape()
	if shape[1] != 3 || shape[2] != 16 || shape[3] != 16 {
		t.Fatalf("shape = %v", shape)
	}
	for _, c := range ds.ClassCounts() {
		if c != 20 {
			t.Fatalf("class counts unbalanced: %v", ds.ClassCounts())
		}
	}
}

func TestSynthImageDeterministic(t *testing.T) {
	a := SynthImage(SynthImageConfig{Samples: 50, Seed: 7})
	b := SynthImage(SynthImageConfig{Samples: 50, Seed: 7})
	if !a.X.AllClose(b.X, 0) {
		t.Fatal("same seed must reproduce data")
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("same seed must reproduce labels")
		}
	}
	c := SynthImage(SynthImageConfig{Samples: 50, Seed: 8})
	if a.X.AllClose(c.X, 1e-9) {
		t.Fatal("different seeds should differ")
	}
}

func TestSynthImageLearnable(t *testing.T) {
	// A small CNN must separate the classes far above chance — this is
	// the property that makes SynthImage a valid CIFAR-10 stand-in.
	ds := SynthImage(SynthImageConfig{Samples: 600, NumClasses: 4, Resolution: 8, Seed: 3})
	train, test := ds.Split(0.8)
	net := nn.NewSmallCNN(nn.SmallCNNConfig{NumClasses: 4, InChannels: 3, Resolution: 8, Seed: 1})
	opt := nn.NewSGD(0.9)
	b := NewBatcher(train, 32, randx.New(2))
	for step := 0; step < 150; step++ {
		x, y := b.Next()
		net.ZeroGrads()
		net.TrainBatch(x, y)
		opt.Step(net.Params(), 0.05)
	}
	_, correct := net.EvalBatch(test.X, test.Y)
	acc := float64(correct) / float64(test.Len())
	if acc < 0.7 {
		t.Fatalf("SynthImage test accuracy %.2f, want >= 0.7", acc)
	}
}

func TestBlobsLearnableByLogistic(t *testing.T) {
	ds := Blobs(BlobsConfig{Samples: 2000, Seed: 4})
	train, test := ds.Split(0.8)
	net := nn.NewMLP(nn.MLPConfig{In: 32, NumClasses: 10, Seed: 1})
	opt := nn.NewSGD(0)
	b := NewBatcher(train, 64, randx.New(5))
	for step := 0; step < 400; step++ {
		x, y := b.Next()
		net.ZeroGrads()
		net.TrainBatch(x, y)
		opt.Step(net.Params(), 0.2)
	}
	_, correct := net.EvalBatch(test.X, test.Y)
	acc := float64(correct) / float64(test.Len())
	if acc < 0.75 {
		t.Fatalf("Blobs test accuracy %.2f, want >= 0.75", acc)
	}
}

func TestBlobsChanceLevelUntrained(t *testing.T) {
	ds := Blobs(BlobsConfig{Samples: 1000, Seed: 6})
	net := nn.NewMLP(nn.MLPConfig{In: 32, NumClasses: 10, Seed: 2})
	_, correct := net.EvalBatch(ds.X, ds.Y)
	acc := float64(correct) / float64(ds.Len())
	if acc > 0.3 {
		t.Fatalf("untrained accuracy %.2f suspiciously high", acc)
	}
}

func TestSubsetCopiesData(t *testing.T) {
	ds := Blobs(BlobsConfig{Samples: 20, Features: 4, Seed: 1})
	sub := ds.Subset([]int{0, 1})
	orig := ds.X.At(0, 0)
	sub.X.Set(999, 0, 0)
	if ds.X.At(0, 0) != orig {
		t.Fatal("Subset must copy")
	}
}

func TestSubsetOutOfRangePanics(t *testing.T) {
	ds := Blobs(BlobsConfig{Samples: 10, Features: 4, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds.Subset([]int{10})
}

func TestSplitSizes(t *testing.T) {
	ds := Blobs(BlobsConfig{Samples: 100, Features: 4, Seed: 1})
	train, test := ds.Split(0.8)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
}

func TestIIDPartitionCoversAll(t *testing.T) {
	parts := IIDPartition(103, 10, 1)
	if parts.NumClients() != 10 {
		t.Fatalf("clients = %d", parts.NumClients())
	}
	seen := make([]bool, 103)
	for _, idxs := range parts {
		if len(idxs) < 10 || len(idxs) > 11 {
			t.Fatalf("IID shard size %d", len(idxs))
		}
		for _, i := range idxs {
			if seen[i] {
				t.Fatalf("index %d assigned twice", i)
			}
			seen[i] = true
		}
	}
	if parts.TotalSamples() != 103 {
		t.Fatalf("total = %d", parts.TotalSamples())
	}
}

func TestDirichletPartitionValidAndExhaustive(t *testing.T) {
	err := quick.Check(func(seed uint64, alphaIdx uint8) bool {
		alphas := []float64{0.1, 1, 5, 10, 1000}
		alpha := alphas[int(alphaIdx)%len(alphas)]
		ds := Blobs(BlobsConfig{Samples: 500, Features: 4, Seed: seed})
		parts := DirichletPartition(ds.Y, 10, 20, alpha, seed)
		seen := make([]bool, 500)
		for _, idxs := range parts {
			if len(idxs) == 0 {
				return false // every client must get at least one sample
			}
			for _, i := range idxs {
				if seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return parts.TotalSamples() == 500
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// heterogeneity measures the average total-variation distance between
// per-client label distributions and the global distribution.
func heterogeneity(parts Partition, labels []int, numClasses int) float64 {
	hist := LabelHistogram(parts, labels, numClasses)
	global := make([]float64, numClasses)
	for _, y := range labels {
		global[y]++
	}
	for c := range global {
		global[c] /= float64(len(labels))
	}
	tv := 0.0
	for _, row := range hist {
		n := 0
		for _, v := range row {
			n += v
		}
		d := 0.0
		for c, v := range row {
			d += math.Abs(float64(v)/float64(n) - global[c])
		}
		tv += d / 2
	}
	return tv / float64(len(hist))
}

func TestDirichletAlphaControlsHeterogeneity(t *testing.T) {
	// The paper's D_alpha semantics: smaller alpha => more non-iid.
	ds := Blobs(BlobsConfig{Samples: 5000, Features: 4, Seed: 11})
	h1 := heterogeneity(DirichletPartition(ds.Y, 10, 50, 1, 12), ds.Y, 10)
	h1000 := heterogeneity(DirichletPartition(ds.Y, 10, 50, 1000, 12), ds.Y, 10)
	if h1 < 2*h1000 {
		t.Fatalf("alpha=1 heterogeneity %.3f not clearly above alpha=1000 %.3f", h1, h1000)
	}
	if h1000 > 0.15 {
		t.Fatalf("alpha=1000 should be near-iid, got TV %.3f", h1000)
	}
}

func TestLabelHistogramCounts(t *testing.T) {
	labels := []int{0, 0, 1, 2, 1}
	parts := Partition{{0, 2}, {1, 3, 4}}
	hist := LabelHistogram(parts, labels, 3)
	if hist[0][0] != 1 || hist[0][1] != 1 || hist[1][0] != 1 || hist[1][1] != 1 || hist[1][2] != 1 {
		t.Fatalf("hist = %v", hist)
	}
}

func TestBatcherBatchProperties(t *testing.T) {
	ds := Blobs(BlobsConfig{Samples: 100, Features: 4, Seed: 15})
	b := NewBatcher(ds, 16, randx.New(16))
	x, y := b.Next()
	if x.Dim(0) != 16 || len(y) != 16 {
		t.Fatalf("batch dims %v / %d", x.Shape(), len(y))
	}
	// Within-batch sampling is without replacement: all rows distinct
	// with overwhelming probability for Gaussian data.
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			same := true
			for f := 0; f < 4; f++ {
				if x.At(i, f) != x.At(j, f) {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("duplicate rows %d,%d in batch", i, j)
			}
		}
	}
}

func TestBatcherClampsBatchSize(t *testing.T) {
	ds := Blobs(BlobsConfig{Samples: 10, Features: 4, Seed: 17})
	b := NewBatcher(ds, 64, randx.New(18))
	if b.BatchSize() != 10 {
		t.Fatalf("clamped batch size = %d", b.BatchSize())
	}
	x, _ := b.Next()
	if x.Dim(0) != 10 {
		t.Fatalf("batch size %d", x.Dim(0))
	}
}

func TestBatcherDeterministic(t *testing.T) {
	ds := Blobs(BlobsConfig{Samples: 60, Features: 4, Seed: 21})
	b1 := NewBatcher(ds, 8, randx.New(22))
	b2 := NewBatcher(ds, 8, randx.New(22))
	for i := 0; i < 5; i++ {
		x1, y1 := b1.Next()
		x2, y2 := b2.Next()
		if !x1.AllClose(x2, 0) {
			t.Fatal("batchers with same seed diverged")
		}
		for j := range y1 {
			if y1[j] != y2[j] {
				t.Fatal("labels diverged")
			}
		}
	}
}

// TestBatcherNextReusesBuffers: Next returns the batcher's own tensor
// and label slice every call, and draws exactly the batches the
// allocate-per-call sampler did (a fresh index map each call, the batch
// built by Dataset.Batch).
func TestBatcherNextReusesBuffers(t *testing.T) {
	ds := Blobs(BlobsConfig{Samples: 90, Features: 5, Seed: 23})
	b := NewBatcher(ds, 12, randx.New(24))
	rng := randx.New(24)
	idx := make([]int, 12)
	var firstX *tensor.Dense
	for step := 0; step < 6; step++ {
		seen := make(map[int]int, 12)
		for i := range idx {
			j := i + rng.IntN(ds.Len()-i)
			vi, oki := seen[i]
			if !oki {
				vi = i
			}
			vj, okj := seen[j]
			if !okj {
				vj = j
			}
			idx[i] = vj
			seen[j] = vi
			seen[i] = vj
		}
		wantX, wantY := ds.Batch(idx)

		x, y := b.Next()
		if step == 0 {
			firstX = x
		} else if x != firstX {
			t.Fatalf("step %d: Next returned a new batch tensor", step)
		}
		if !x.AllClose(wantX, 0) {
			t.Fatalf("step %d: batch differs from the per-call sampler's", step)
		}
		for i := range wantY {
			if y[i] != wantY[i] {
				t.Fatalf("step %d: label %d = %d, want %d", step, i, y[i], wantY[i])
			}
		}
	}
}
