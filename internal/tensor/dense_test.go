package tensor

import (
	"math"
	"testing"

	"fedms/internal/randx"
)

func TestNewZeroFilled(t *testing.T) {
	d := New(2, 3)
	if d.Len() != 6 {
		t.Fatalf("Len = %d, want 6", d.Len())
	}
	for _, v := range d.Data() {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	d := New(2, 3, 4)
	d.Set(7.5, 1, 2, 3)
	if got := d.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major: offset of (1,2,3) in [2,3,4] is 1*12+2*4+3 = 23.
	if d.Data()[23] != 7.5 {
		t.Fatal("row-major offset wrong")
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceSharesData(t *testing.T) {
	buf := []float64{1, 2, 3, 4}
	d := FromSlice(buf, 2, 2)
	buf[0] = 9
	if d.At(0, 0) != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestReshapeSharesAndChecksVolume(t *testing.T) {
	d := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r := d.Reshape(3, 2)
	r.Set(99, 0, 0)
	if d.At(0, 0) != 99 {
		t.Fatal("Reshape must share the buffer")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad reshape")
		}
	}()
	d.Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	d := FromSlice([]float64{1, 2}, 2)
	c := d.Clone()
	c.Set(5, 0)
	if d.At(0) != 1 {
		t.Fatal("Clone must copy")
	}
}

func TestRowView(t *testing.T) {
	d := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	row := d.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Fatalf("Row(1) = %v", row)
	}
	row[1] = 50
	if d.At(1, 1) != 50 {
		t.Fatal("Row must be a view")
	}
}

func TestElementWiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	a.Add(b)
	want := []float64{5, 7, 9}
	for i, w := range want {
		if a.Data()[i] != w {
			t.Fatalf("Add: got %v", a.Data())
		}
	}
	a.Sub(b)
	if a.At(0) != 1 || a.At(2) != 3 {
		t.Fatalf("Sub: got %v", a.Data())
	}
	a.Scale(0.5)
	if a.At(1) != 1 {
		t.Fatalf("Scale: got %v", a.Data())
	}
}

func TestReductions(t *testing.T) {
	d := FromSlice([]float64{1, -2, 7, 4}, 4)
	if d.Sum() != 10 {
		t.Fatalf("Sum = %v", d.Sum())
	}
	if d.Mean() != 2.5 {
		t.Fatalf("Mean = %v", d.Mean())
	}
	if d.Max() != 7 {
		t.Fatalf("Max = %v", d.Max())
	}
}

func TestApply(t *testing.T) {
	d := FromSlice([]float64{-1, 2, -3}, 3)
	d.Apply(math.Abs)
	if d.At(0) != 1 || d.At(2) != 3 {
		t.Fatalf("Apply: %v", d.Data())
	}
}

func TestFillNormalStats(t *testing.T) {
	d := New(10000)
	d.FillNormal(randx.New(1), 0, 1)
	if m := d.Mean(); math.Abs(m) > 0.05 {
		t.Fatalf("FillNormal mean = %v", m)
	}
}

func TestAllClose(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1.0001, 2}, 2)
	if !a.AllClose(b, 1e-3) {
		t.Fatal("AllClose should accept within tolerance")
	}
	if a.AllClose(b, 1e-6) {
		t.Fatal("AllClose should reject outside tolerance")
	}
}

func TestVecHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	VecAdd(a, b)
	if a[2] != 33 {
		t.Fatalf("VecAdd: %v", a)
	}
	VecAxpy(a, 2, b)
	if a[1] != 62 {
		t.Fatalf("VecAxpy: %v", a)
	}
	if d := VecDist2([]float64{0, 0}, []float64{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Fatalf("VecDist2 = %v", d)
	}
	dst := make([]float64, 2)
	VecMean(dst, [][]float64{{1, 2}, {3, 6}})
	if dst[0] != 2 || dst[1] != 4 {
		t.Fatalf("VecMean: %v", dst)
	}
}

func TestVecMeanPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	VecMean(make([]float64, 1), nil)
}
