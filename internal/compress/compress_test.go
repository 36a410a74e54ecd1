package compress

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"fedms/internal/randx"
	"fedms/internal/tensor"
)

// Each behaviour below runs through the one encode path (spec →
// NewCodec → AppendEncode) and both readers (readBoth), or through the
// two wire layouts tests build hostile payloads from.

func TestTopKKeepsLargestMagnitudes(t *testing.T) {
	v := []float64{0.1, -5, 2, 0, 3, -0.5}
	got := encodeRead(t, newTestCodec(t, "topk:0.5", 0), v)
	if want := []float64{0, -5, 2, 0, 3, 0}; !slices.Equal(got, want) {
		t.Fatalf("topk:0.5 = %v, want %v", got, want)
	}
}

func TestTopKRatio(t *testing.T) {
	v := make([]float64, 100)
	randx.Normal(randx.New(1), v, 0, 1)
	enc, payload := newTestCodec(t, "topk:0.1", 0).AppendEncode(nil, v)
	view, err := ParsePayload(enc, payload)
	if err != nil {
		t.Fatal(err)
	}
	if idx, _, ok := view.Sparse(); !ok || len(idx) != 10 {
		t.Fatalf("kept %d entries (sparse %v), want 10", len(idx), ok)
	}
}

// TestTopKClamps pins keepCount, the keep rule topk and randk share:
// ceil(ratio·d), at least one, at most d.
func TestTopKClamps(t *testing.T) {
	for _, c := range []struct {
		ratio     float64
		dim, want int
	}{
		{0.1, 100, 10},
		{0.101, 100, 11}, // ceil, not round
		{0.0001, 2, 1},   // floor at one
		{1, 2, 2},
		{0.5, 0, 0}, // an empty vector keeps nothing
	} {
		if got := keepCount(c.ratio, c.dim); got != c.want {
			t.Errorf("keepCount(%g, %d) = %d, want %d", c.ratio, c.dim, got, c.want)
		}
	}
}

func TestTopKIsBestKTermApproximation(t *testing.T) {
	c := newTestCodec(t, "topk:0.2", 0)
	err := quick.Check(func(seed uint64) bool {
		v := make([]float64, 50)
		randx.Normal(randx.New(seed), v, 0, 1)
		dense := encodeRead(t, c, v)
		// Residual magnitude of kept entries is 0; any dropped entry
		// must be <= any kept entry in magnitude.
		minKept := math.Inf(1)
		maxDropped := 0.0
		for i := range v {
			if dense[i] != 0 {
				minKept = math.Min(minKept, math.Abs(v[i]))
			} else {
				maxDropped = math.Max(maxDropped, math.Abs(v[i]))
			}
		}
		return maxDropped <= minKept+1e-12
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRandKUnbiased: one randk instance draws a fresh support per call
// and scales by d/k, so the mean of many encodes of v converges to v.
func TestRandKUnbiased(t *testing.T) {
	v := make([]float64, 64)
	randx.Normal(randx.New(3), v, 0, 1)
	c := newTestCodec(t, "randk:0.25", 3) // 16 of 64
	acc := make([]float64, 64)
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		tensor.VecAdd(acc, encodeRead(t, c, v))
	}
	tensor.VecScale(acc, 1.0/trials)
	if d := tensor.VecDist2(acc, v); d > 0.35 {
		t.Fatalf("randk biased: E[C(v)] deviates from v by %v", d)
	}
}

func TestRandKDeterministicPerSeed(t *testing.T) {
	v := make([]float64, 32)
	randx.Normal(randx.New(4), v, 0, 1)
	a, b := newTestCodec(t, "randk:0.25", 5), newTestCodec(t, "randk:0.25", 5)
	for call := 0; call < 3; call++ {
		_, pa := a.AppendEncode(nil, v)
		_, pb := b.AppendEncode(nil, v)
		if !bytes.Equal(pa, pb) {
			t.Fatalf("call %d: randk with the same seed must be deterministic", call)
		}
	}
}

// TestSparseEncodeDecodeRoundTrip pins the Sparse wire layout: an
// 8-byte header, then 4 bytes per index and 8 per value, scattered
// back by both readers.
func TestSparseEncodeDecodeRoundTrip(t *testing.T) {
	s := Sparse{Dim: 40, Indices: []uint32{0, 7, 19, 39}, Values: []float64{1.5, -2, math.Inf(1), 3}}
	buf := s.AppendEncode(nil)
	if len(buf) != 8+12*len(s.Indices) {
		t.Fatalf("encoded %d bytes, want %d", len(buf), 8+12*len(s.Indices))
	}
	want := make([]float64, s.Dim)
	for i, idx := range s.Indices {
		want[idx] = s.Values[i]
	}
	if got := readBoth(t, EncSparse, buf); !slices.Equal(got, want) {
		t.Fatalf("sparse round trip = %v, want %v", got, want)
	}
}

func TestDecodeSparseRejectsCorrupt(t *testing.T) {
	buf := (&Sparse{Dim: 3, Indices: []uint32{1, 2}, Values: []float64{2, 3}}).AppendEncode(nil)
	rejectBoth(t, "short buffer", 3, EncSparse, []byte{1, 2, 3})
	rejectBoth(t, "truncated buffer", 3, EncSparse, buf[:len(buf)-1])
	buf[8] = 200
	rejectBoth(t, "out-of-range index", 3, EncSparse, buf)
}

// TestUniformQuantizationErrorBound: q<bits> reconstructs every
// coordinate within half a quantization step of the vector's range.
func TestUniformQuantizationErrorBound(t *testing.T) {
	for _, bits := range []int{1, 2, 4, 8, 16} {
		v := make([]float64, 200)
		randx.Normal(randx.New(uint64(bits)), v, 0, 2)
		dense := encodeRead(t, newTestCodec(t, fmt.Sprintf("q%d", bits), 0), v)
		levels := float64((uint64(1) << bits) - 1)
		maxErr := (slices.Max(v) - slices.Min(v)) / levels / 2
		for i := range v {
			if err := math.Abs(dense[i] - v[i]); err > maxErr+1e-9 {
				t.Fatalf("bits=%d: error %v exceeds half-step %v", bits, err, maxErr)
			}
		}
	}
}

func TestUniformQuantizationPreservesExtremes(t *testing.T) {
	dense := encodeRead(t, newTestCodec(t, "q8", 0), []float64{-3, 0, 7})
	if math.Abs(dense[0]-(-3)) > 1e-9 || math.Abs(dense[2]-7) > 1e-9 {
		t.Fatalf("extremes not preserved: %v", dense)
	}
}

func TestUniformConstantVector(t *testing.T) {
	dense := encodeRead(t, newTestCodec(t, "q4", 0), []float64{5, 5, 5})
	for _, x := range dense {
		if x != 5 {
			t.Fatalf("constant vector round trip: %v", dense)
		}
	}
}

// TestQuantizedEncodeDecodeRoundTrip pins the Quantized wire layout on
// an odd length, which exercises the bit packing: a 24-byte header and
// ceil(d·bits/8) code bytes, which the parsed header re-encodes byte
// for byte.
func TestQuantizedEncodeDecodeRoundTrip(t *testing.T) {
	v := make([]float64, 33)
	randx.Normal(randx.New(8), v, 0, 1)
	enc, buf := newTestCodec(t, "q5", 0).AppendEncode(nil, v)
	if want := 24 + (33*5+7)/8; len(buf) != want {
		t.Fatalf("encoded %d bytes, want %d", len(buf), want)
	}
	q, err := quantizedHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if again := q.AppendEncode(nil); !bytes.Equal(again, buf) {
		t.Fatal("quantized layout did not re-encode byte for byte")
	}
	readBoth(t, enc, buf)
}

func TestDecodeQuantizedRejectsCorrupt(t *testing.T) {
	rejectBoth(t, "short buffer", 2, EncQuantized, []byte{1})
	for _, bits := range []byte{0, 17, 99} {
		_, buf := newTestCodec(t, "q8", 0).AppendEncode(nil, []float64{1, 2})
		buf[4] = bits
		rejectBoth(t, fmt.Sprintf("bit width %d", bits), 2, EncQuantized, buf)
	}
}

func TestCompressionRatio(t *testing.T) {
	v := make([]float64, 10000)
	randx.Normal(randx.New(9), v, 0, 1)
	raw := 8 * len(v)
	for _, c := range []struct {
		spec string
		max  int
	}{{"topk:0.01", raw / 50}, {"q8", raw / 7}} {
		if _, payload := newTestCodec(t, c.spec, 0).AppendEncode(nil, v); len(payload) > c.max {
			t.Errorf("%s uses %d bytes of %d raw, want at most %d", c.spec, len(payload), raw, c.max)
		}
	}
}

// TestErrorFeedbackConvergesWhereTopKStalls is the canonical EF
// property: plain top-1 on gradient descent leaves coordinates
// permanently unserved, while error feedback eventually transmits
// every accumulated residual.
func TestErrorFeedbackConvergesWhereTopKStalls(t *testing.T) {
	// Minimize f(w) = ½‖w − c‖² by compressed gradient steps; a ratio
	// of 0.25 keeps one of the four coordinates.
	c := []float64{10, 1, 0.1, 0.01}
	step := func(spec string, iters int) []float64 {
		codec := newTestCodec(t, spec, 0)
		w := make([]float64, len(c))
		grad := make([]float64, len(c))
		for i := 0; i < iters; i++ {
			for j := range grad {
				grad[j] = w[j] - c[j]
			}
			tensor.VecAxpy(w, -0.5, encodeRead(t, codec, grad))
		}
		return w
	}
	plain := step("topk:0.25", 200)
	ef := step("ef+topk:0.25", 200)

	plainErr := tensor.VecDist2(plain, c)
	efErr := tensor.VecDist2(ef, c)
	if efErr > 0.05 {
		t.Fatalf("error feedback did not converge: err %v", efErr)
	}
	if plainErr < 10*efErr {
		t.Fatalf("plain top-1 should stall: plain %v vs ef %v", plainErr, efErr)
	}
}

func TestErrorFeedbackResidualAccounting(t *testing.T) {
	c := newTestCodec(t, "ef+topk:0.5", 0) // keeps one of two
	v := []float64{3, 2}
	dense := encodeRead(t, c, v)
	// Kept coordinate 0 (largest); residual = v - dense = [0, 2].
	res := c.(*efCodec).Residual()
	if dense[0] != 3 || res[0] != 0 || res[1] != 2 {
		t.Fatalf("dense %v residual %v", dense, res)
	}
	// Next round, coordinate 1 has accumulated 2+2=4 > 3: it wins.
	if dense2 := encodeRead(t, c, v); dense2[1] != 4 {
		t.Fatalf("second round dense = %v, want residual flush", dense2)
	}
}

func TestErrorFeedbackPanicsOnDimChange(t *testing.T) {
	c := newTestCodec(t, "ef+topk:0.5", 0)
	c.AppendEncode(nil, []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.AppendEncode(nil, []float64{1, 2, 3})
}
