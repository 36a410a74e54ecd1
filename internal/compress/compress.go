// Package compress implements model-vector compression schemes that
// complement Fed-MS's sparse uploading on the communication-efficiency
// axis: top-k and random-k sparsification, uniform quantization, and an
// error-feedback accumulator that makes biased compressors safe to use
// across rounds.
//
// The paper's sparse upload reduces *how many* servers receive a model
// (K uploads instead of K·P); these schemes reduce *how large* each
// upload is. They compose: a client can compress the one model it
// uploads.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"fedms/internal/randx"
)

// Compressed is a compressed representation of a float64 vector.
type Compressed interface {
	// Dense reconstructs the (lossy) dense vector.
	Dense() []float64
	// DenseInto reconstructs into dst (len(dst) must equal the dim).
	DenseInto(dst []float64)
	// WireBytes is the serialized size in bytes.
	WireBytes() int
	// Encode serializes the representation.
	Encode() []byte
	// AppendEncode serializes onto dst and returns the extended buffer,
	// so steady-state encoders can reuse one buffer across frames.
	AppendEncode(dst []byte) []byte
}

// Compressor maps dense vectors to compressed representations.
type Compressor interface {
	Name() string
	Compress(v []float64) Compressed
}

// ---------------------------------------------------------------------------
// Sparse representations (top-k, random-k)

// Sparse is an index/value sparse vector.
type Sparse struct {
	Dim     int
	Indices []uint32
	Values  []float64
}

// Dense implements Compressed.
func (s *Sparse) Dense() []float64 {
	out := make([]float64, s.Dim)
	s.DenseInto(out)
	return out
}

// DenseInto implements Compressed.
func (s *Sparse) DenseInto(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for i, idx := range s.Indices {
		dst[idx] = s.Values[i]
	}
}

// WireBytes implements Compressed: 8 bytes header + 4 per index + 8 per
// value.
func (s *Sparse) WireBytes() int { return 8 + len(s.Indices)*12 }

// Encode implements Compressed.
func (s *Sparse) Encode() []byte { return s.AppendEncode(nil) }

// AppendEncode implements Compressed.
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

// DecodeSparse parses a Sparse encoding. Indices must be strictly
// increasing and in range: a Byzantine or corrupted payload with
// duplicate or out-of-order indices must not silently double-write
// coordinates, so it is rejected here at the wire boundary.
func DecodeSparse(buf []byte) (*Sparse, error) {
	dim, n, err := sparseHeader(buf)
	if err != nil {
		return nil, err
	}
	s := &Sparse{Dim: dim, Indices: make([]uint32, n), Values: make([]float64, n)}
	off := 8
	prev := -1
	for i := range s.Indices {
		idx := binary.LittleEndian.Uint32(buf[off:])
		if int(idx) <= prev {
			return nil, fmt.Errorf("%w: sparse index %d after %d (must be strictly increasing)", ErrPayload, idx, prev)
		}
		if int(idx) >= dim {
			return nil, fmt.Errorf("%w: sparse index %d out of range %d", ErrPayload, idx, dim)
		}
		prev = int(idx)
		s.Indices[i] = idx
		off += 4
	}
	for i := range s.Values {
		s.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return s, nil
}

// TopK keeps the k entries with the largest magnitude. It is the
// classic biased sparsifier; combine with ErrorFeedback for
// convergence across rounds.
//
// The kept set follows one total order, shared with the topk codecs:
// |v| descending, then index ascending, so of equal magnitudes the
// lower indices are kept (−0 ties +0). NaN ranks above +Inf, and NaNs
// tie with each other. Selection is O(dim) (see TopKIndices).
type TopK struct {
	// K is the number of entries to keep; if zero, Ratio is used.
	K int
	// Ratio keeps ceil(Ratio*dim) entries (used when K == 0).
	Ratio float64
}

// Name implements Compressor.
func (t TopK) Name() string {
	if t.K > 0 {
		return fmt.Sprintf("topk(k=%d)", t.K)
	}
	return fmt.Sprintf("topk(ratio=%g)", t.Ratio)
}

func (t TopK) k(dim int) int {
	k := t.K
	if k == 0 {
		k = int(math.Ceil(t.Ratio * float64(dim)))
	}
	if k < 1 {
		k = 1
	}
	if k > dim {
		k = dim
	}
	return k
}

// Compress implements Compressor.
func (t TopK) Compress(v []float64) Compressed {
	var c topkCodec
	c.sparsify(v, t.k(len(v)), nil)
	return &c.s
}

// RandK keeps k uniformly random entries scaled by dim/k, which makes
// the compressor unbiased in expectation.
type RandK struct {
	// K is the number of entries to keep; if zero, Ratio is used.
	K int
	// Ratio keeps ceil(Ratio*dim) entries (used when K == 0).
	Ratio float64
	// Seed drives the index selection (vary per round for fresh
	// sampling).
	Seed uint64
}

// Name implements Compressor.
func (r RandK) Name() string {
	if r.K > 0 {
		return fmt.Sprintf("randk(k=%d)", r.K)
	}
	return fmt.Sprintf("randk(ratio=%g)", r.Ratio)
}

// Compress implements Compressor.
func (r RandK) Compress(v []float64) Compressed {
	k := TopK{K: r.K, Ratio: r.Ratio}.k(len(v))
	rng := randx.New(r.Seed)
	perm := randx.Perm(rng, len(v))[:k]
	sort.Ints(perm)
	scale := float64(len(v)) / float64(k)
	s := &Sparse{Dim: len(v), Indices: make([]uint32, k), Values: make([]float64, k)}
	for i, idx := range perm {
		s.Indices[i] = uint32(idx)
		s.Values[i] = v[idx] * scale
	}
	return s
}

// ---------------------------------------------------------------------------
// Uniform quantization

// Quantized is a b-bit uniformly quantized vector.
type Quantized struct {
	Dim  int
	Bits int
	Min  float64
	Max  float64
	// Codes packs Dim codes of Bits bits each, little-endian within
	// bytes.
	Codes []byte
}

// Dense implements Compressed.
func (q *Quantized) Dense() []float64 {
	out := make([]float64, q.Dim)
	q.denseInto(out)
	return out
}

// DenseInto implements Compressed.
func (q *Quantized) DenseInto(dst []float64) { q.denseInto(dst) }

func (q *Quantized) denseInto(dst []float64) { q.denseRange(dst, 0, q.Dim) }

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

// WireBytes implements Compressed.
func (q *Quantized) WireBytes() int { return 24 + len(q.Codes) }

// Encode implements Compressed.
func (q *Quantized) Encode() []byte { return q.AppendEncode(nil) }

// AppendEncode implements Compressed.
func (q *Quantized) AppendEncode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Bits))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.Min))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.Max))
	return append(dst, q.Codes...)
}

// DecodeQuantized parses a Quantized encoding.
func DecodeQuantized(buf []byte) (*Quantized, error) {
	if len(buf) < 24 {
		return nil, errors.New("compress: quantized encoding too short")
	}
	q := &Quantized{
		Dim:  int(binary.LittleEndian.Uint32(buf[0:])),
		Bits: int(binary.LittleEndian.Uint32(buf[4:])),
		Min:  math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
		Max:  math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
	}
	if q.Bits < 1 || q.Bits > 16 {
		return nil, fmt.Errorf("compress: invalid bit width %d", q.Bits)
	}
	want := (q.Dim*q.Bits + 7) / 8
	if len(buf) != 24+want {
		return nil, fmt.Errorf("compress: quantized encoding length %d, want %d", len(buf), 24+want)
	}
	q.Codes = append([]byte(nil), buf[24:]...)
	return q, nil
}

// Uniform quantizes each coordinate to Bits bits between the vector's
// min and max.
type Uniform struct {
	// Bits per coordinate, in [1, 16] (default 8).
	Bits int
}

// Name implements Compressor.
func (u Uniform) Name() string { return fmt.Sprintf("quantize(bits=%d)", u.bits()) }

func (u Uniform) bits() int {
	if u.Bits == 0 {
		return 8
	}
	return u.Bits
}

// Compress implements Compressor.
func (u Uniform) Compress(v []float64) Compressed {
	bits := u.bits()
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("compress: invalid bit width %d", bits))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if len(v) == 0 {
		lo, hi = 0, 0
	}
	q := &Quantized{
		Dim:   len(v),
		Bits:  bits,
		Min:   lo,
		Max:   hi,
		Codes: make([]byte, (len(v)*bits+7)/8),
	}
	levels := float64((uint64(1) << bits) - 1)
	span := hi - lo
	for i, x := range v {
		var code uint64
		if span > 0 {
			code = uint64(math.Round((x - lo) / span * levels))
		}
		q.setCode(i, code)
	}
	return q
}

// ---------------------------------------------------------------------------
// Error feedback

// ErrorFeedback wraps a (possibly biased) compressor with residual
// accumulation: each round it compresses v + residual and keeps the
// compression error for the next round, which restores convergence for
// biased sparsifiers like TopK (Stich et al., 2018).
type ErrorFeedback struct {
	inner    Compressor
	residual []float64
}

// NewErrorFeedback wraps inner.
func NewErrorFeedback(inner Compressor) *ErrorFeedback {
	return &ErrorFeedback{inner: inner}
}

// Name implements Compressor.
func (e *ErrorFeedback) Name() string { return "ef(" + e.inner.Name() + ")" }

// Compress implements Compressor.
func (e *ErrorFeedback) Compress(v []float64) Compressed {
	if e.residual == nil {
		e.residual = make([]float64, len(v))
	}
	if len(e.residual) != len(v) {
		panic("compress: ErrorFeedback dimension changed")
	}
	corrected := make([]float64, len(v))
	for i := range v {
		corrected[i] = v[i] + e.residual[i]
	}
	c := e.inner.Compress(corrected)
	dense := c.Dense()
	for i := range v {
		e.residual[i] = corrected[i] - dense[i]
	}
	return c
}

// Residual returns the current accumulated error (read-only copy).
func (e *ErrorFeedback) Residual() []float64 {
	return append([]float64(nil), e.residual...)
}

var (
	_ Compressor = TopK{}
	_ Compressor = RandK{}
	_ Compressor = Uniform{}
	_ Compressor = (*ErrorFeedback)(nil)
	_ Compressed = (*Sparse)(nil)
	_ Compressed = (*Quantized)(nil)
)
