package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Payload is a validated, structured view of one encoded model: the
// no-densify access path the fused aggregation rules consume
// (aggregate.PayloadRule). A view is produced either by ParsePayload
// from tagged wire bytes or by DensePayload from an in-memory vector,
// and every accessor reconstructs exactly the coordinates
// DecodePayloadInto would have produced — bit-identical, which is what
// lets the aggregation layer operate on views without a per-client
// dense scratch vector.
//
// Views may alias their source: sparse indices/values are decoded into
// owned slices at parse time, but dense raw bytes, quantized code
// bytes and DensePayload vectors are referenced, not copied. Callers
// must not mutate the source buffer while the view is live, and must
// treat the view itself as read-only. The zero Payload is an empty
// dense vector (Dim 0).
type Payload struct {
	enc Encoding
	dim int
	vec []float64 // DensePayload wrapper (aliases the caller's vector)
	raw []byte    // EncDense payload bytes (alias)
	idx []uint32  // EncSparse indices, strictly increasing (owned)
	val []float64 // EncSparse values (owned)
	q   Quantized // EncQuantized header + Codes alias
}

// ParsePayload validates a tagged payload and returns a structured
// view of it. Validation is complete up front — a sparse payload with
// duplicate, out-of-order or out-of-range indices, or any payload
// with a malformed header or length, is rejected here, before the
// view can reach an aggregation accumulator. The error cases are
// exactly DecodePayloadInto's, wrapped in ErrPayload.
func ParsePayload(enc Encoding, payload []byte) (Payload, error) {
	switch enc {
	case EncDense:
		if len(payload)%8 != 0 {
			return Payload{}, fmt.Errorf("%w: dense payload length %d not a multiple of 8", ErrPayload, len(payload))
		}
		return Payload{enc: EncDense, dim: len(payload) / 8, raw: payload}, nil
	case EncSparse:
		dim, n, err := sparseHeader(payload)
		if err != nil {
			return Payload{}, err
		}
		p := Payload{enc: EncSparse, dim: dim, idx: make([]uint32, n), val: make([]float64, n)}
		vals := payload[8+4*n:]
		prev := -1
		for i := range p.idx {
			idx := int(binary.LittleEndian.Uint32(payload[8+4*i:]))
			if idx <= prev || idx >= dim {
				return Payload{}, sparseIndexErr(idx, prev, dim)
			}
			prev = idx
			p.idx[i] = uint32(idx)
			p.val[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))
		}
		return p, nil
	case EncQuantized:
		q, err := quantizedHeader(payload)
		if err != nil {
			return Payload{}, err
		}
		return Payload{enc: EncQuantized, dim: q.Dim, q: q}, nil
	}
	return Payload{}, fmt.Errorf("%w: unknown encoding %d", ErrPayload, uint8(enc))
}

// DensePayload wraps an in-memory dense vector as a view without
// copying. It is how v1 (dense-frame) models and engine-internal
// vectors enter the fused aggregation path uniformly.
func DensePayload(v []float64) Payload {
	return Payload{enc: EncDense, dim: len(v), vec: v}
}

// DenseWire serializes a dense model as an EncDense payload
// (little-endian float64s), so a dense upload parked as bytes — a spill
// record, a client's async backlog — round-trips bit-exactly through
// ParsePayload(EncDense, ·).
func DenseWire(v []float64) []byte {
	_, b := denseCodec{}.AppendEncode(make([]byte, 0, 8*len(v)), v)
	return b
}

// Dim returns the dense dimension the view decodes to.
func (p *Payload) Dim() int { return p.dim }

// Sparse exposes the explicit support of a sparse view: strictly
// increasing in-range indices and their values, with every other
// coordinate an implicit +0.0. ok is false for dense and quantized
// views, whose support is the full dimension. The returned slices are
// read-only.
func (p *Payload) Sparse() (indices []uint32, values []float64, ok bool) {
	if p.enc != EncSparse {
		return nil, nil, false
	}
	return p.idx, p.val, true
}

// DenseInto reconstructs the full vector into dst, bit-identical to
// DecodePayloadInto on the original payload. len(dst) must equal Dim.
func (p *Payload) DenseInto(dst []float64) {
	p.checkDim(len(dst))
	p.GatherInto(dst, 0, p.dim)
}

// DenseView returns the reconstructed dense vector. For DensePayload
// wrappers it returns the wrapped slice without copying — callers
// must not mutate the result. All other views allocate.
func (p *Payload) DenseView() []float64 {
	if p.vec != nil {
		return p.vec
	}
	out := make([]float64, p.dim)
	p.DenseInto(out)
	return out
}

// GatherInto reconstructs the coordinate range [lo, hi) into
// dst[0:hi-lo], bit-identical to the same slice of the densified
// vector. It is the column-gather primitive of the fused trimmed-mean
// and median paths.
func (p *Payload) GatherInto(dst []float64, lo, hi int) {
	if lo < 0 || hi < lo || hi > p.dim {
		panic(fmt.Sprintf("compress: GatherInto range [%d,%d) outside dim %d", lo, hi, p.dim))
	}
	dst = dst[:hi-lo]
	switch {
	case p.vec != nil:
		copy(dst, p.vec[lo:hi])
	case p.enc == EncDense:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p.raw[8*(lo+i):]))
		}
	case p.enc == EncSparse:
		for i := range dst {
			dst[i] = 0
		}
		c := sort.Search(len(p.idx), func(i int) bool { return int(p.idx[i]) >= lo })
		for ; c < len(p.idx) && int(p.idx[c]) < hi; c++ {
			dst[int(p.idx[c])-lo] = p.val[c]
		}
	default:
		p.q.denseRange(dst, lo, hi)
	}
}

// AddTo accumulates the view into acc: acc[j] += v[j] for the
// densified v, except that a sparse view only touches its explicit
// support. Skipping the implicit zeros is bit-identical to
// tensor.VecAdd(acc, densified): an accumulator that starts at +0.0
// can never hold -0.0 (x+(-x) and (+0)+(-0) both round to +0.0 and
// only (-0)+(-0) yields -0.0), and acc[j] + (+0.0) == acc[j] bitwise
// for every other value. len(acc) must equal Dim.
func (p *Payload) AddTo(acc []float64) {
	p.checkDim(len(acc))
	switch {
	case p.vec != nil:
		for i, v := range p.vec {
			acc[i] += v
		}
	case p.enc == EncDense:
		for i := range acc {
			acc[i] += math.Float64frombits(binary.LittleEndian.Uint64(p.raw[8*i:]))
		}
	case p.enc == EncSparse:
		for c, idx := range p.idx {
			acc[idx] += p.val[c]
		}
	default:
		p.q.addTo(acc)
	}
}

func (p *Payload) checkDim(n int) {
	if n != p.dim {
		panic(fmt.Sprintf("compress: payload dim %d, caller expects %d", p.dim, n))
	}
}

// denseRange dequantizes coordinates [lo, hi) into dst[0:hi-lo]. Full
// decodes and range gathers both run it, so they stay bit-identical.
func (q *Quantized) denseRange(dst []float64, lo, hi int) {
	levels := (uint64(1) << q.Bits) - 1
	span := q.Max - q.Min
	for i := lo; i < hi; i++ {
		if levels == 0 || span == 0 {
			dst[i-lo] = q.Min
			continue
		}
		dst[i-lo] = q.Min + span*float64(q.code(i))/float64(levels)
	}
}

// addTo accumulates the dequantized vector into acc using denseRange's
// per-coordinate expression.
func (q *Quantized) addTo(acc []float64) {
	levels := (uint64(1) << q.Bits) - 1
	span := q.Max - q.Min
	for i := 0; i < q.Dim; i++ {
		if levels == 0 || span == 0 {
			acc[i] += q.Min
			continue
		}
		acc[i] += q.Min + span*float64(q.code(i))/float64(levels)
	}
}
