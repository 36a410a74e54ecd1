package aggregate

import (
	"math"
	"testing"

	"fedms/internal/randx"
)

func TestMultiKrumAveragesSelection(t *testing.T) {
	// 6 clustered vectors + 2 outliers with F=2: the result must be far
	// from the outliers and near the cluster mean.
	r := randx.New(1)
	vecs := randomVecs(r, 6, 4)
	all := append(vecs, []float64{500, 500, 500, 500}, []float64{-500, -500, -500, -500})
	out := MultiKrum{F: 2}.Aggregate(all)
	for _, v := range out {
		if math.Abs(v) > 10 {
			t.Fatalf("MultiKrum output polluted: %v", out)
		}
	}
}

func TestMultiKrumMEqualsOneIsKrum(t *testing.T) {
	r := randx.New(2)
	vecs := randomVecs(r, 7, 5)
	a := MultiKrum{F: 2, M: 1}.Aggregate(vecs)
	b := Krum{F: 2}.Aggregate(vecs)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MultiKrum(M=1) must equal Krum")
		}
	}
}

func TestMultiKrumDefaultM(t *testing.T) {
	// n=8, F=2 -> M = 4; averaging 4 in-cluster vectors beats any single
	// one in variance, so the result should differ from plain Krum but
	// stay in the cluster.
	r := randx.New(3)
	vecs := randomVecs(r, 8, 3)
	out := MultiKrum{F: 2}.Aggregate(vecs)
	if len(out) != 3 {
		t.Fatalf("dim = %d", len(out))
	}
}

func TestMultiKrumSingleInput(t *testing.T) {
	out := MultiKrum{F: 0}.Aggregate([][]float64{{3, 4}})
	if out[0] != 3 || out[1] != 4 {
		t.Fatalf("single input = %v", out)
	}
}

func TestKrumRankOrdersByScore(t *testing.T) {
	// Three tight vectors and one far away: the far one must rank last.
	vecs := [][]float64{{0}, {0.1}, {-0.1}, {100}}
	order := krumRank(vecs, 1)
	if order[len(order)-1] != 3 {
		t.Fatalf("outlier not ranked last: %v", order)
	}
}

func TestBulyanRobustToOutliers(t *testing.T) {
	// n=11, F=2 satisfies n >= 4F+3.
	r := randx.New(4)
	vecs := randomVecs(r, 9, 4)
	all := append(vecs, []float64{1e6, 1e6, 1e6, 1e6}, []float64{-1e6, -1e6, -1e6, -1e6})
	out := Bulyan{F: 2}.Aggregate(all)
	for _, v := range out {
		if math.Abs(v) > 10 {
			t.Fatalf("Bulyan output polluted: %v", out)
		}
	}
}

func TestBulyanFixedPoint(t *testing.T) {
	v := []float64{1, -2, 3}
	vecs := make([][]float64, 11)
	for i := range vecs {
		vecs[i] = v
	}
	out := Bulyan{F: 2}.Aggregate(vecs)
	for i := range v {
		if math.Abs(out[i]-v[i]) > 1e-9 {
			t.Fatalf("Bulyan of identical vectors = %v", out)
		}
	}
}

func TestBulyanSmallNClamps(t *testing.T) {
	// Degenerate n < 4F+3 must not panic.
	out := Bulyan{F: 2}.Aggregate([][]float64{{1}, {2}, {3}})
	if len(out) != 1 {
		t.Fatalf("dim = %d", len(out))
	}
}

func TestBulyanOutlierMagnitudeIndependent(t *testing.T) {
	base := randomVecs(randx.New(5), 9, 3)
	mk := func(scale float64) []float64 {
		all := append(append([][]float64{}, base...),
			[]float64{scale, scale, scale}, []float64{-scale, -scale, -scale})
		return Bulyan{F: 2}.Aggregate(all)
	}
	a, b := mk(1e3), mk(1e12)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Bulyan leaked outlier magnitude: %v vs %v", a, b)
		}
	}
}

func TestMedianOf(t *testing.T) {
	if medianOf([]float64{3, 1, 2}, nil, nil) != 2 {
		t.Fatal("odd median wrong")
	}
	if medianOf([]float64{4, 1, 2, 3}, nil, nil) != 2.5 {
		t.Fatal("even median wrong")
	}
}

// TestBulyanAllocs: Bulyan's allocations do not grow with d — stage 2
// sorts each coordinate's closest-to-median values in place instead of
// allocating a sort.Slice closure and swapper per coordinate.
func TestBulyanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	allocs := func(d int) float64 {
		vecs := randomVecs(randx.New(3), 10, d)
		return testing.AllocsPerRun(5, func() { Bulyan{F: 2}.Aggregate(vecs) })
	}
	if small, large := allocs(100), allocs(10_000); large > small {
		t.Fatalf("Bulyan allocates %v objects at d = 1e4 but %v at d = 100", large, small)
	}
}
