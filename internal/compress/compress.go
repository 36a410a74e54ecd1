// Package compress is the model-exchange codec layer. It complements
// Fed-MS's sparse uploading on the communication-efficiency axis: the
// paper's sparse upload reduces *how many* servers receive a model (K
// uploads instead of K·P); a codec reduces *how large* each upload is.
// The two compose: a client compresses the one model it uploads.
//
// A model takes one path each way. A spec string ("dense", "topk:0.1",
// "randk:0.1", "q8", "ef+topk:0.1") parses to a Spec, and
// Spec.NewCodec builds the per-client Codec whose AppendEncode turns a
// dense vector into a tagged wire payload: top-k or random-k
// sparsification, uniform quantization, optionally wrapped in error
// feedback. Payloads are read back by ParsePayload, the validated
// no-densify view every receiver hands to aggregation, or by
// DecodePayloadInto, the zero-allocation dense decode behind the
// error-feedback self-decode and Spec.EncodeDecode. The two readers
// accept exactly the same payloads.
package compress

import (
	"encoding/binary"
	"math"
)

// Sparse is the wire layout of an EncSparse payload: the dimension,
// the entry count, the indices (strictly increasing, below Dim) and
// then their values.
type Sparse struct {
	Dim     int
	Indices []uint32
	Values  []float64
}

// AppendEncode serializes s onto dst and returns the extended buffer.
func (s *Sparse) AppendEncode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Indices)))
	for _, idx := range s.Indices {
		dst = binary.LittleEndian.AppendUint32(dst, idx)
	}
	for _, v := range s.Values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// Quantized is the wire layout of an EncQuantized payload: Dim codes of
// Bits bits each, uniform between Min and Max.
type Quantized struct {
	Dim  int
	Bits int
	Min  float64
	Max  float64
	// Codes packs Dim codes of Bits bits each, little-endian within
	// bytes.
	Codes []byte
}

// AppendEncode serializes q onto dst and returns the extended buffer.
func (q *Quantized) AppendEncode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Bits))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.Min))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.Max))
	return append(dst, q.Codes...)
}

func (q *Quantized) code(i int) uint64 {
	bitOff := i * q.Bits
	var code uint64
	for b := 0; b < q.Bits; b++ {
		byteIdx := (bitOff + b) / 8
		bitIdx := (bitOff + b) % 8
		if q.Codes[byteIdx]&(1<<bitIdx) != 0 {
			code |= 1 << b
		}
	}
	return code
}

func (q *Quantized) setCode(i int, code uint64) {
	bitOff := i * q.Bits
	for b := 0; b < q.Bits; b++ {
		byteIdx := (bitOff + b) / 8
		bitIdx := (bitOff + b) % 8
		if code&(1<<b) != 0 {
			q.Codes[byteIdx] |= 1 << bitIdx
		}
	}
}

// keepCount is how many of dim coordinates a sparsifier of the given
// ratio keeps: ceil(ratio·dim), clamped to [1, dim].
func keepCount(ratio float64, dim int) int {
	return min(max(int(math.Ceil(ratio*float64(dim))), 1), dim)
}
