package tensor

import "fedms/internal/par"

// Convolution support for the nn package's Conv2D layers, over
// [N, C, H, W] batches. A standard convolution lowers every image of the
// batch into one wide column matrix (Im2ColBatch), so the whole layer is
// a single GEMM; a depthwise one convolves each channel plane directly
// (DepthwiseForward/DepthwiseBackward).

// ConvOutSize returns the output spatial size for an input of size in with
// the given kernel, stride and symmetric zero padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// tapSpan returns the half-open output-coordinate range [lo, hi) whose
// input coordinate i = o*stride - pad + k lands inside [0, size). Within
// the span there is nothing left to bounds-check, so the per-row loops
// below collapse to contiguous copies (stride 1) or strided gathers.
func tapSpan(size, k, stride, pad, out int) (int, int) {
	lo := 0
	if k < pad {
		// smallest o with o*stride >= pad-k
		lo = (pad - k + stride - 1) / stride
	}
	hi := out
	// largest o with o*stride - pad + k <= size-1, plus one
	if max := (size-1+pad-k)/stride + 1; max < hi {
		hi = max
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// im2colPatchRow copies the (ky, kx) kernel tap of one channel plane into
// a column row of length outH*outW, with implicit zero padding. In-range
// spans are precomputed per row so the hot loop is a straight copy for
// stride 1 (the common case — and for 1×1 kernels the whole row is one
// plane-sized copy) and a check-free gather otherwise.
func im2colPatchRow(img []float64, h, w, ky, kx, stride, pad, outH, outW int, out []float64) {
	xlo, xhi := tapSpan(w, kx, stride, pad, outW)
	idx := 0
	for oy := 0; oy < outH; oy++ {
		iy := oy*stride - pad + ky
		row := out[idx : idx+outW]
		idx += outW
		if iy < 0 || iy >= h {
			for i := range row {
				row[i] = 0
			}
			continue
		}
		for i := range row[:xlo] {
			row[i] = 0
		}
		if xhi > xlo {
			base := iy*w + xlo*stride - pad + kx
			if stride == 1 {
				copy(row[xlo:xhi], img[base:])
			} else {
				for ox := xlo; ox < xhi; ox++ {
					row[ox] = img[base]
					base += stride
				}
			}
		}
		for i := xhi; i < outW; i++ {
			row[i] = 0
		}
	}
}

// col2imPatchRow accumulates one column row back into the (ky, kx) kernel
// tap positions of a channel plane. Padding positions are dropped. The
// same span precomputation as im2colPatchRow keeps the inner loop free of
// bounds checks.
func col2imPatchRow(in []float64, h, w, ky, kx, stride, pad, outH, outW int, img []float64) {
	xlo, xhi := tapSpan(w, kx, stride, pad, outW)
	idx := 0
	for oy := 0; oy < outH; oy++ {
		iy := oy*stride - pad + ky
		row := in[idx : idx+outW]
		idx += outW
		if iy < 0 || iy >= h || xhi == xlo {
			continue
		}
		base := iy*w + xlo*stride - pad + kx
		if stride == 1 {
			dst := img[base : base+(xhi-xlo)]
			for i, v := range row[xlo:xhi] {
				dst[i] += v
			}
		} else {
			for ox := xlo; ox < xhi; ox++ {
				img[base] += row[ox]
				base += stride
			}
		}
	}
}

// DepthwiseForward convolves every channel plane of an [n, c, h, w]
// batch with its own kh×kw filter, writing an [n, c, outH, outW] batch.
// f holds one filter per channel, [c, kh*kw]. No production path lowers
// a depthwise layer; its results are bit-identical to the per-image
// reference lowering of nn's conv_ref_test.go (one channel per group,
// one im2col and naive product per plane): each output element
// accumulates its taps in ascending (ky, kx) order from a +0 start, and
// the skipped padding taps are the lowering's exact-zero products, whose
// elision cannot change a sum that starts at +0. workers bounds the
// goroutine fan-out; channels are partitioned, so any worker count
// produces identical bits.
func DepthwiseForward(x []float64, n, c, h, w int, f []float64, kh, kw, stride, pad int, workers int, out []float64) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	l := outH * outW
	if len(out) < n*c*l || len(x) < n*c*h*w || len(f) < c*kh*kw {
		panic("tensor: DepthwiseForward buffer too short")
	}
	depthwiseChannels(c, n*l*kh*kw, workers, func(c0, c1 int) {
		for ch := c0; ch < c1; ch++ {
			filt := f[ch*kh*kw : (ch+1)*kh*kw]
			for i := 0; i < n; i++ {
				img := x[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
				dst := out[(i*c+ch)*l : (i*c+ch+1)*l]
				depthwisePlaneFwd(img, h, w, filt, kh, kw, stride, pad, outH, outW, dst)
			}
		}
	})
}

// DepthwiseBackward is the gradient of DepthwiseForward: it accumulates
// the filter gradient into df ([c, kh*kw]) and overwrites dx with the
// input gradient. Accumulation orders match the same per-image
// reference lowering (image-major over the batch, ascending taps), so
// both gradients are bit-identical to it.
func DepthwiseBackward(x, grad []float64, n, c, h, w int, f []float64, kh, kw, stride, pad int, workers int, df, dx []float64) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	l := outH * outW
	if len(grad) < n*c*l || len(x) < n*c*h*w || len(dx) < n*c*h*w || len(df) < c*kh*kw || len(f) < c*kh*kw {
		panic("tensor: DepthwiseBackward buffer too short")
	}
	depthwiseChannels(c, 2*n*l*kh*kw, workers, func(c0, c1 int) {
		for ch := c0; ch < c1; ch++ {
			filt := f[ch*kh*kw : (ch+1)*kh*kw]
			dfilt := df[ch*kh*kw : (ch+1)*kh*kw]
			t := 0
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					xlo, xhi := tapSpan(w, kx, stride, pad, outW)
					s := dfilt[t]
					for i := 0; i < n; i++ {
						img := x[(i*c+ch)*h*w:]
						g := grad[(i*c+ch)*l:]
						for oy := 0; oy < outH; oy++ {
							iy := oy*stride - pad + ky
							if iy < 0 || iy >= h || xhi == xlo {
								continue
							}
							grow := g[oy*outW : oy*outW+outW]
							base := iy*w + xlo*stride - pad + kx
							if stride == 1 {
								src := img[base : base+(xhi-xlo)]
								for j, v := range src {
									s += grow[xlo+j] * v
								}
							} else {
								for ox := xlo; ox < xhi; ox++ {
									s += grow[ox] * img[base]
									base += stride
								}
							}
						}
					}
					dfilt[t] = s
					t++
				}
			}
			for i := 0; i < n; i++ {
				g := grad[(i*c+ch)*l : (i*c+ch+1)*l]
				dplane := dx[(i*c+ch)*h*w : (i*c+ch+1)*h*w]
				depthwisePlaneBwd(g, h, w, filt, kh, kw, stride, pad, outH, outW, dplane)
			}
		}
	})
}

// depthwiseChannels runs fn over channel ranges of [0, c), spread over
// up to workers goroutines when the per-step work volume justifies the
// fan-out. The ranges are disjoint, so the split never changes results.
func depthwiseChannels(c, volume, workers int, fn func(c0, c1 int)) {
	if volume < gemmParallelVolume {
		workers = 1
	}
	par.For(c, workers, fn)
}

// depthwisePlaneFwd convolves one channel plane with one filter: dst is
// zeroed, then each in-range tap is a scaled row add (contiguous for
// stride 1).
func depthwisePlaneFwd(img []float64, h, w int, f []float64, kh, kw, stride, pad, outH, outW int, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	t := 0
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			fv := f[t]
			t++
			xlo, xhi := tapSpan(w, kx, stride, pad, outW)
			if xhi == xlo {
				continue
			}
			for oy := 0; oy < outH; oy++ {
				iy := oy*stride - pad + ky
				if iy < 0 || iy >= h {
					continue
				}
				row := dst[oy*outW : oy*outW+outW]
				base := iy*w + xlo*stride - pad + kx
				if stride == 1 {
					src := img[base : base+(xhi-xlo)]
					for j, v := range src {
						row[xlo+j] += fv * v
					}
				} else {
					for ox := xlo; ox < xhi; ox++ {
						row[ox] += fv * img[base]
						base += stride
					}
				}
			}
		}
	}
}

// depthwisePlaneBwd scatters one channel plane's output gradient back
// through the filter: dplane is zeroed, then dplane[iy,ix] += f[t]·g[oy,ox]
// for every in-range tap, in the same row-major tap order Col2ImBatch
// uses, so the result is bit-identical to the reference lowering.
func depthwisePlaneBwd(g []float64, h, w int, f []float64, kh, kw, stride, pad, outH, outW int, dplane []float64) {
	for i := range dplane {
		dplane[i] = 0
	}
	t := 0
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			fv := f[t]
			t++
			xlo, xhi := tapSpan(w, kx, stride, pad, outW)
			if xhi == xlo {
				continue
			}
			for oy := 0; oy < outH; oy++ {
				iy := oy*stride - pad + ky
				if iy < 0 || iy >= h {
					continue
				}
				grow := g[oy*outW : oy*outW+outW]
				base := iy*w + xlo*stride - pad + kx
				if stride == 1 {
					dst := dplane[base : base+(xhi-xlo)]
					for j, v := range grow[xlo:xhi] {
						dst[j] += fv * v
					}
				} else {
					for ox := xlo; ox < xhi; ox++ {
						dplane[base] += fv * grow[ox]
						base += stride
					}
				}
			}
		}
	}
}

// Im2ColBatch lowers an [n, c, h, w] batch into one
// [c*kh*kw, n*outH*outW] column matrix: image i occupies columns
// [i*outH*outW, (i+1)*outH*outW) of every row, so a whole batch feeds a
// single GEMM. Zero padding is applied implicitly.
func Im2ColBatch(src []float64, n, c, h, w, kh, kw, stride, pad int, dst []float64) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	l := outH * outW
	ncols := n * l
	if len(dst) != c*kh*kw*ncols {
		panic("tensor: Im2ColBatch dst has wrong length")
	}
	for i := 0; i < n; i++ {
		img := src[i*c*h*w : (i+1)*c*h*w]
		row := 0
		for ch := 0; ch < c; ch++ {
			plane := img[ch*h*w : (ch+1)*h*w]
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					im2colPatchRow(plane, h, w, ky, kx, stride, pad, outH, outW, dst[row*ncols+i*l:row*ncols+(i+1)*l])
					row++
				}
			}
		}
	}
}

// Col2ImBatch scatters a batched [c*kh*kw, n*outH*outW] column matrix
// back into an [n, c, h, w] batch, which it zeroes first, accumulating
// overlapping taps. Padding positions are dropped. It is the adjoint of
// Im2ColBatch.
func Col2ImBatch(cols []float64, n, c, h, w, kh, kw, stride, pad int, dst []float64) {
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	l := outH * outW
	ncols := n * l
	if len(cols) != c*kh*kw*ncols {
		panic("tensor: Col2ImBatch cols has wrong length")
	}
	for i := 0; i < n; i++ {
		img := dst[i*c*h*w : (i+1)*c*h*w]
		for j := range img {
			img[j] = 0
		}
		row := 0
		for ch := 0; ch < c; ch++ {
			plane := img[ch*h*w : (ch+1)*h*w]
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					col2imPatchRow(cols[row*ncols+i*l:row*ncols+(i+1)*l], h, w, ky, kx, stride, pad, outH, outW, plane)
					row++
				}
			}
		}
	}
}
