package nn

import (
	"math"
	"testing"

	"fedms/internal/tensor"
)

// TestReLUSpecialValues pins ReLU and ReLU6 on signed zeros,
// subnormals, infinities, NaN and the cap boundaries: the output bits,
// and the mask through Backward (the gradient where set, +0 elsewhere).
func TestReLUSpecialValues(t *testing.T) {
	nan := math.NaN()
	sub := math.SmallestNonzeroFloat64
	below6, above6 := math.Nextafter(6, 0), math.Nextafter(6, 7)
	negZero := math.Copysign(0, -1)
	in := []float64{0, negZero, sub, -sub, 1.5, -1.5, math.Inf(1), math.Inf(-1), nan,
		6, below6, above6, math.MaxFloat64, -math.MaxFloat64}
	const g = -3.25
	cases := []struct {
		name string
		l    *ReLU
		out  []float64
		mask []bool
	}{
		{"relu", NewReLU("r"),
			[]float64{0, 0, sub, 0, 1.5, 0, math.Inf(1), 0, 0, 6, below6, above6, math.MaxFloat64, 0},
			[]bool{false, false, true, false, true, false, true, false, false, true, true, true, true, false}},
		{"relu6", NewReLU6("r6"),
			[]float64{0, 0, sub, 0, 1.5, 0, 6, 0, nan, 6, below6, 6, 6, 0},
			[]bool{false, false, true, false, true, false, false, false, true, false, true, false, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := tensor.FromSlice(append([]float64(nil), in...), len(in))
			eval := tc.l.Forward(x, false).Data()
			for i, want := range tc.out {
				if math.Float64bits(eval[i]) != math.Float64bits(want) {
					t.Fatalf("Forward(%v, eval) = %v (%#x), want %v (%#x)", in[i], eval[i], math.Float64bits(eval[i]), want, math.Float64bits(want))
				}
			}
			out := tc.l.Forward(x, true).Data()
			gs := make([]float64, len(in))
			for i := range gs {
				gs[i] = g
			}
			grad := tensor.FromSlice(gs, len(gs))
			dx := tc.l.Backward(grad).Data()
			for i, want := range tc.out {
				if math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("Forward(%v, train) = %v, want %v", in[i], out[i], want)
				}
				wantDX := 0.0
				if tc.mask[i] {
					wantDX = g
				}
				if math.Float64bits(dx[i]) != math.Float64bits(wantDX) {
					t.Fatalf("Backward at %v = %v (%#x), want %v", in[i], dx[i], math.Float64bits(dx[i]), wantDX)
				}
			}
		})
	}
}
