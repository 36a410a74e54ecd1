package tensor

import (
	"testing"

	"fedms/internal/randx"
)

func TestConvOutSize(t *testing.T) {
	tests := []struct {
		in, kernel, stride, pad, want int
	}{
		{4, 3, 1, 0, 2},
		{4, 3, 1, 1, 4},
		{8, 3, 2, 1, 4},
		{32, 3, 2, 1, 16},
		{1, 1, 1, 0, 1},
	}
	for _, tt := range tests {
		if got := ConvOutSize(tt.in, tt.kernel, tt.stride, tt.pad); got != tt.want {
			t.Errorf("ConvOutSize(%d,%d,%d,%d) = %d, want %d",
				tt.in, tt.kernel, tt.stride, tt.pad, got, tt.want)
		}
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// A 1x1 kernel with stride 1, pad 0 reproduces the image.
	img := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	Im2ColBatch(img, 1, 1, 2, 2, 1, 1, 1, 0, dst)
	for i := range img {
		if dst[i] != img[i] {
			t.Fatalf("1x1 Im2ColBatch = %v", dst)
		}
	}
}

func TestIm2ColKnownPatch(t *testing.T) {
	// 1-channel 3x3 image, 2x2 kernel, stride 1, pad 0 -> 4 patches.
	img := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	dst := make([]float64, 4*4) // C*kh*kw=4 rows, outH*outW=4 cols
	Im2ColBatch(img, 1, 1, 3, 3, 2, 2, 1, 0, dst)
	// Row 0 is the kernel position (0,0) across patches: 1,2,4,5.
	wantRow0 := []float64{1, 2, 4, 5}
	for i, w := range wantRow0 {
		if dst[i] != w {
			t.Fatalf("row0 = %v, want %v", dst[:4], wantRow0)
		}
	}
	// Row 3 is kernel position (1,1): 5,6,8,9.
	wantRow3 := []float64{5, 6, 8, 9}
	for i, w := range wantRow3 {
		if dst[12+i] != w {
			t.Fatalf("row3 = %v, want %v", dst[12:16], wantRow3)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	// With pad 1, the first patch's top-left element is zero padding.
	img := []float64{1, 2, 3, 4}
	outDim := ConvOutSize(2, 3, 1, 1) // = 2
	dst := make([]float64, 9*outDim*outDim)
	Im2ColBatch(img, 1, 1, 2, 2, 3, 3, 1, 1, dst)
	if dst[0] != 0 {
		t.Fatalf("padded corner should be 0, got %v", dst[0])
	}
	// Kernel center (position 1,1 = row 4) over patch 0 is img[0].
	if dst[4*4+0] != 1 {
		t.Fatalf("center row = %v", dst[16:20])
	}
}

// naiveConv computes a direct 2D convolution for one channel.
func naiveConv(img []float64, h, w int, ker []float64, kh, kw, stride, pad int) []float64 {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	out := make([]float64, outH*outW)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			s := 0.0
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					iy := oy*stride - pad + ky
					ix := ox*stride - pad + kx
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						s += img[iy*w+ix] * ker[ky*kw+kx]
					}
				}
			}
			out[oy*outW+ox] = s
		}
	}
	return out
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	r := randx.New(42)
	h, w, kh, kw := 7, 6, 3, 3
	for _, cfg := range []struct{ stride, pad int }{{1, 0}, {1, 1}, {2, 1}, {3, 0}} {
		img := make([]float64, h*w)
		ker := make([]float64, kh*kw)
		randx.Normal(r, img, 0, 1)
		randx.Normal(r, ker, 0, 1)

		outH := ConvOutSize(h, kh, cfg.stride, cfg.pad)
		outW := ConvOutSize(w, kw, cfg.stride, cfg.pad)
		cols := make([]float64, kh*kw*outH*outW)
		Im2ColBatch(img, 1, 1, h, w, kh, kw, cfg.stride, cfg.pad, cols)

		// Conv as GEMM: [1 x kh*kw] x [kh*kw x outH*outW].
		got := make([]float64, outH*outW)
		Gemm(got, ker, cols, 1, outH*outW, kh*kw, 1)

		want := naiveConv(img, h, w, ker, kh, kw, cfg.stride, cfg.pad)
		for i := range want {
			if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("stride=%d pad=%d: im2col conv diverges from naive at %d: %v vs %v",
					cfg.stride, cfg.pad, i, got[i], want[i])
			}
		}
	}
}

func TestCol2ImIsIm2ColAdjoint(t *testing.T) {
	// <Im2ColBatch(x), y> == <x, Col2ImBatch(y)> must hold for the
	// backward pass to be a correct gradient (adjoint property of the
	// linear lowering), over a batch of two images.
	r := randx.New(7)
	n, c, h, w, kh, kw, stride, pad := 2, 2, 5, 5, 3, 3, 2, 1
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	nCols := c * kh * kw * n * outH * outW

	x := make([]float64, n*c*h*w)
	y := make([]float64, nCols)
	randx.Normal(r, x, 0, 1)
	randx.Normal(r, y, 0, 1)

	fx := make([]float64, nCols)
	Im2ColBatch(x, n, c, h, w, kh, kw, stride, pad, fx)
	fty := make([]float64, n*c*h*w)
	Col2ImBatch(y, n, c, h, w, kh, kw, stride, pad, fty)

	lhs := dot(fx, y)
	rhs := dot(x, fty)
	if d := lhs - rhs; d > 1e-9 || d < -1e-9 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}
