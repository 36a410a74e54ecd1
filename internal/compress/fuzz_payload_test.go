package compress_test

import (
	"math"
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/compress"
)

// FuzzParsePayload holds the two payload readers to each other on
// arbitrary tagged bytes and drives the fused column-gather
// aggregation path from the accepted views (it lives in an external
// test package because the gather kernels sit above compress in
// internal/aggregate). checkPayload states the contract; the seed
// corpus pins one accepted shape per encoding and one regression seed
// per rejection class.
func FuzzParsePayload(f *testing.F) {
	sparse := func(dim uint32, idx []uint32, val []float64) []byte {
		s := compress.Sparse{Dim: int(dim), Indices: idx, Values: val}
		return s.AppendEncode(nil)
	}
	valid := sparse(4, []uint32{0, 2}, []float64{1, -2})

	// Accepted shapes, one per encoding family.
	f.Add(byte(compress.EncSparse), valid)
	f.Add(byte(compress.EncQuantized), codecPayload(f, "q4", []float64{0.5, -0.5, 2}))
	f.Add(byte(compress.EncDense), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add(byte(compress.EncSparse), sparse(4, nil, nil)) // empty support

	// One regression seed per rejection class.
	f.Add(byte(compress.EncSparse), sparse(4, []uint32{1, 1}, []float64{1, 2}))                                           // duplicate index
	f.Add(byte(compress.EncSparse), sparse(4, []uint32{2, 1}, []float64{1, 2}))                                           // out-of-order index
	f.Add(byte(compress.EncSparse), sparse(4, []uint32{1, 9}, []float64{1, 2}))                                           // out-of-range index
	f.Add(byte(compress.EncSparse), valid[:len(valid)-3])                                                                 // truncated buffer
	f.Add(byte(compress.EncSparse), []byte{1, 0, 0, 0, 3, 0, 0, 0})                                                       // count exceeds dim
	f.Add(byte(compress.EncQuantized), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // zero bit width
	f.Add(byte(compress.EncDense), []byte{1, 2, 3})                                                                       // not a multiple of 8
	f.Add(byte(7), valid)                                                                                                 // unknown encoding tag
	f.Add(byte(compress.EncSparse), []byte{1, 0, 0, 0x30, 0, 0, 0, 0})                                                    // empty support claiming dim≈8e8 (found by fuzzing: the oracle must not densify it)

	f.Fuzz(func(t *testing.T, encByte byte, data []byte) {
		checkPayload(t, compress.Encoding(encByte), data)
	})
}

// FuzzDecodeSparse and FuzzDecodeQuantized hold one encoding each to
// the checkPayload contract. With the tag fixed, every input the
// fuzzer generates lands on that encoding's parser.
func FuzzDecodeSparse(f *testing.F) {
	f.Add(codecPayload(f, "topk:0.5", []float64{1, -2, 3}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { checkPayload(t, compress.EncSparse, data) })
}

func FuzzDecodeQuantized(f *testing.F) {
	f.Add(codecPayload(f, "q4", []float64{0.5, -0.5, 2}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { checkPayload(t, compress.EncQuantized, data) })
}

// codecPayload encodes v once with a fresh codec for spec.
func codecPayload(tb testing.TB, spec string, v []float64) []byte {
	tb.Helper()
	sp, err := compress.ParseSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := sp.NewCodec(1)
	if err != nil {
		tb.Fatal(err)
	}
	_, payload := c.AppendEncode(nil, v)
	return payload
}

// checkPayload is the contract under fuzz, threefold:
//
//   - Rejection parity: ParsePayload accepts a payload iff DecodePayload
//     (PayloadDim, then DecodePayloadInto) accepts it. Duplicate,
//     out-of-order or out-of-range sparse indices, truncated buffers,
//     bad quantizer headers and unknown tags are all rejected at parse
//     time — before a view exists, so before any aggregation
//     accumulator can be written.
//   - Reconstruction identity: every accepted view reconstructs
//     bit-identically through DenseInto, tile-sized GatherInto and
//     AddTo-onto-zeros.
//   - Gather identity: the fused trimmed-mean and mean kernels over
//     copies of the view match decode-then-aggregate bit for bit.
func checkPayload(t *testing.T, enc compress.Encoding, data []byte) {
	view, err := compress.ParsePayload(enc, data)
	dim, dimErr := compress.PayloadDim(enc, data)
	if err == nil && dimErr != nil {
		t.Fatalf("ParsePayload accepts a payload with a bad header: %v", dimErr)
	}
	if err == nil && view.Dim() != dim {
		t.Fatalf("view dim %d, header dim %d", view.Dim(), dim)
	}
	if dimErr == nil && dim > 1<<15 {
		// A tiny payload may legitimately claim a huge dimension
		// (e.g. an empty sparse support over d=1e9): ParsePayload
		// stays O(len(data)), but the densify oracle would allocate
		// dim floats, so wide headers stop at structural parity.
		return
	}
	ref, refErr := compress.DecodePayload(enc, data)
	if err != nil {
		if refErr == nil {
			t.Fatalf("ParsePayload rejects what DecodePayload accepts: %v", err)
		}
		return
	}
	if refErr != nil {
		t.Fatalf("ParsePayload accepts what DecodePayload rejects: %v", refErr)
	}
	d := view.Dim()
	if d != len(ref) {
		t.Fatalf("view dim %d, decoded dim %d", d, len(ref))
	}

	full := make([]float64, d)
	view.DenseInto(full)
	gathered := make([]float64, d)
	const tile = 96 // deliberately unaligned with the kernels' tile size
	for lo := 0; lo < d; lo += tile {
		hi := lo + tile
		if hi > d {
			hi = d
		}
		view.GatherInto(gathered[lo:hi], lo, hi)
	}
	added := make([]float64, d)
	view.AddTo(added)
	// AddTo's oracle is dense *accumulation*, not the dense vector:
	// an explicit -0.0 entry added to a +0.0 accumulator rounds to
	// +0.0 on both paths (fuzzing found the distinction).
	refAcc := make([]float64, d)
	for j := range refAcc {
		refAcc[j] += ref[j]
	}
	for j := 0; j < d; j++ {
		if math.Float64bits(full[j]) != math.Float64bits(ref[j]) ||
			math.Float64bits(gathered[j]) != math.Float64bits(ref[j]) ||
			math.Float64bits(added[j]) != math.Float64bits(refAcc[j]) {
			t.Fatalf("coord %d: DenseInto %v / GatherInto %v / AddTo %v, decoded %v",
				j, full[j], gathered[j], added[j], ref[j])
		}
	}

	views := []compress.Payload{view, view, view}
	dense := [][]float64{ref, ref, ref}
	for _, rule := range []aggregate.Rule{
		aggregate.Mean{},
		aggregate.TrimmedMean{Trim: 1},
		aggregate.CoordinateMedian{},
	} {
		got := aggregate.Run(aggregate.Request{Rule: rule, Views: views}).Out
		want := rule.Aggregate(dense)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s coord %d: fused %v != reference %v", rule.Name(), j, got[j], want[j])
			}
		}
	}
}
