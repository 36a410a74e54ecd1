package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"fedms/internal/randx"
)

// Encoding tags the wire format of an encoded model payload. The values
// are part of the v2 frame format and must never be renumbered.
type Encoding uint8

const (
	// EncDense is raw little-endian float64s (8 bytes per coordinate).
	EncDense Encoding = 0
	// EncSparse is the Sparse index/value encoding.
	EncSparse Encoding = 1
	// EncQuantized is the Quantized bit-packed encoding.
	EncQuantized Encoding = 2
)

// String implements fmt.Stringer.
func (e Encoding) String() string {
	switch e {
	case EncDense:
		return "dense"
	case EncSparse:
		return "sparse"
	case EncQuantized:
		return "quantized"
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

// KnownEncoding reports whether e is a payload tag this build can
// decode. The wire decoder rejects frames with unknown tags before
// they reach any payload parser.
func KnownEncoding(e Encoding) bool {
	return e == EncDense || e == EncSparse || e == EncQuantized
}

// Codec encodes dense model vectors into tagged wire payloads. Encode
// state (error-feedback residuals, sampling counters, scratch buffers)
// lives in the Codec, so instances are NOT safe for concurrent use;
// give each client its own.
type Codec interface {
	// Name is the canonical spec string ("dense", "topk:0.05", ...).
	Name() string
	// AppendEncode compresses v, appends the encoded payload to dst and
	// returns the payload tag plus the extended buffer. The appended
	// bytes are exactly the payload DecodePayloadInto expects.
	AppendEncode(dst []byte, v []float64) (Encoding, []byte)
}

// ErrPayload tags structurally invalid codec payloads. Wire-layer
// consumers match on it to degrade a bad payload like a corrupt frame
// instead of killing the connection.
var ErrPayload = errors.New("compress: bad payload")

// ---------------------------------------------------------------------------
// Stateless payload decoding (shared by transport, node and engine)

// DecodePayload decodes a tagged payload into a freshly allocated dense
// vector. The dimension is read from the payload itself.
func DecodePayload(enc Encoding, payload []byte) ([]float64, error) {
	dim, err := PayloadDim(enc, payload)
	if err != nil {
		return nil, err
	}
	dst := make([]float64, dim)
	if err := DecodePayloadInto(dst, enc, payload); err != nil {
		return nil, err
	}
	return dst, nil
}

// PayloadDim reports the dense dimension a payload decodes to, without
// decoding the coordinates.
func PayloadDim(enc Encoding, payload []byte) (int, error) {
	switch enc {
	case EncDense:
		if len(payload)%8 != 0 {
			return 0, fmt.Errorf("%w: dense payload length %d not a multiple of 8", ErrPayload, len(payload))
		}
		return len(payload) / 8, nil
	case EncSparse:
		dim, _, err := sparseHeader(payload)
		return dim, err
	case EncQuantized:
		q, err := quantizedHeader(payload)
		if err != nil {
			return 0, err
		}
		return q.Dim, nil
	}
	return 0, fmt.Errorf("%w: unknown encoding %d", ErrPayload, uint8(enc))
}

// DecodePayloadInto decodes a tagged payload into dst without
// allocating. The payload's dimension must equal len(dst); sparse
// payloads additionally must obey the index rule (see sparseIndexErr).
func DecodePayloadInto(dst []float64, enc Encoding, payload []byte) error {
	switch enc {
	case EncDense:
		if len(payload) != 8*len(dst) {
			return fmt.Errorf("%w: dense payload %d bytes, want %d", ErrPayload, len(payload), 8*len(dst))
		}
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		return nil
	case EncSparse:
		return decodeSparseInto(dst, payload)
	case EncQuantized:
		return decodeQuantizedInto(dst, payload)
	}
	return fmt.Errorf("%w: unknown encoding %d", ErrPayload, uint8(enc))
}

// sparseHeader validates the fixed part of a Sparse payload and returns
// (dim, n).
func sparseHeader(buf []byte) (dim, n int, err error) {
	if len(buf) < 8 {
		return 0, 0, fmt.Errorf("%w: sparse encoding too short", ErrPayload)
	}
	dim = int(binary.LittleEndian.Uint32(buf[0:]))
	n = int(binary.LittleEndian.Uint32(buf[4:]))
	if n > dim {
		return 0, 0, fmt.Errorf("%w: sparse entry count %d exceeds dim %d", ErrPayload, n, dim)
	}
	if len(buf) != 8+n*12 {
		return 0, 0, fmt.Errorf("%w: sparse encoding length %d, want %d", ErrPayload, len(buf), 8+n*12)
	}
	return dim, n, nil
}

// sparseIndexErr reports a sparse index that breaks the one index rule
// of the sparse encoding: indices are strictly increasing and below
// dim, so a Byzantine or corrupted payload cannot double-write a
// coordinate. Both readers (ParsePayload and DecodePayloadInto) check
// idx <= prev || idx >= dim inline, in their single pass over the
// indices, and call this only to word the rejection.
func sparseIndexErr(idx, prev, dim int) error {
	if idx <= prev {
		return fmt.Errorf("%w: sparse index %d after %d (must be strictly increasing)", ErrPayload, idx, prev)
	}
	return fmt.Errorf("%w: sparse index %d out of range %d", ErrPayload, idx, dim)
}

// decodeSparseInto scatters a sparse payload into dst, zeroing the rest.
func decodeSparseInto(dst []float64, buf []byte) error {
	dim, n, err := sparseHeader(buf)
	if err != nil {
		return err
	}
	if dim != len(dst) {
		return fmt.Errorf("%w: sparse dim %d, want %d", ErrPayload, dim, len(dst))
	}
	for i := range dst {
		dst[i] = 0
	}
	idxOff, valOff := 8, 8+4*n
	prev := -1
	for i := 0; i < n; i++ {
		idx := int(binary.LittleEndian.Uint32(buf[idxOff+4*i:]))
		if idx <= prev || idx >= dim {
			return sparseIndexErr(idx, prev, dim)
		}
		prev = idx
		dst[idx] = math.Float64frombits(binary.LittleEndian.Uint64(buf[valOff+8*i:]))
	}
	return nil
}

// quantizedHeader validates a Quantized payload's header and returns a
// view whose Codes alias buf (no copy).
func quantizedHeader(buf []byte) (Quantized, error) {
	if len(buf) < 24 {
		return Quantized{}, fmt.Errorf("%w: quantized encoding too short", ErrPayload)
	}
	q := Quantized{
		Dim:  int(binary.LittleEndian.Uint32(buf[0:])),
		Bits: int(binary.LittleEndian.Uint32(buf[4:])),
		Min:  math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
		Max:  math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
	}
	if q.Bits < 1 || q.Bits > 16 {
		return Quantized{}, fmt.Errorf("%w: invalid bit width %d", ErrPayload, q.Bits)
	}
	want := (q.Dim*q.Bits + 7) / 8
	if len(buf) != 24+want {
		return Quantized{}, fmt.Errorf("%w: quantized encoding length %d, want %d", ErrPayload, len(buf), 24+want)
	}
	q.Codes = buf[24:]
	return q, nil
}

// decodeQuantizedInto dequantizes a payload straight into dst.
func decodeQuantizedInto(dst []float64, buf []byte) error {
	q, err := quantizedHeader(buf)
	if err != nil {
		return err
	}
	if q.Dim != len(dst) {
		return fmt.Errorf("%w: quantized dim %d, want %d", ErrPayload, q.Dim, len(dst))
	}
	q.denseRange(dst, 0, q.Dim)
	return nil
}

// ---------------------------------------------------------------------------
// Codec specs ("dense", "topk:0.05", "q8", "ef+topk:0.1")

// Spec is a parsed codec specification. The zero value is the dense
// identity codec.
type Spec struct {
	// Kind is one of "dense", "topk", "randk", "q".
	Kind string
	// Ratio is the kept fraction for topk/randk, in (0, 1].
	Ratio float64
	// Bits is the per-coordinate width for q, in [1, 16].
	Bits int
	// EF wraps the codec in error feedback (residual accumulation).
	EF bool
}

// specUsage is the spec grammar ParseSpec accepts, quoted in its errors.
const specUsage = "dense, topk:<ratio>, randk:<ratio>, q<bits>, or ef+<spec> (e.g. ef+topk:0.1)"

// ParseSpec parses a codec specification string:
//
//	dense          raw float64 coordinates, the identity ("" and "none" too)
//	topk:<ratio>   keep the ceil(ratio·d) largest-magnitude coordinates, ratio in (0, 1]
//	randk:<ratio>  keep ceil(ratio·d) random coordinates scaled d/k (unbiased), ratio in (0, 1]
//	q<bits>        uniform quantization to <bits> bits per coordinate, bits in [1, 16]
//	ef+<spec>      a lossy spec wrapped in error feedback
func ParseSpec(s string) (Spec, error) {
	raw := s
	s = strings.ToLower(strings.TrimSpace(s))
	var sp Spec
	if rest, ok := strings.CutPrefix(s, "ef+"); ok {
		sp.EF = true
		s = rest
	}
	switch {
	case s == "" || s == "dense" || s == "none":
		sp.Kind = "dense"
		if sp.EF {
			return Spec{}, fmt.Errorf("compress: spec %q: error feedback needs a lossy codec (dense is exact)", raw)
		}
		return sp, nil
	case strings.HasPrefix(s, "topk:") || strings.HasPrefix(s, "randk:"):
		kind, val, _ := strings.Cut(s, ":")
		r, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("compress: spec %q: bad ratio %q: %v", raw, val, err)
		}
		if !(r > 0 && r <= 1) {
			return Spec{}, fmt.Errorf("compress: spec %q: ratio %g out of range (0, 1]", raw, r)
		}
		sp.Kind, sp.Ratio = kind, r
		return sp, nil
	case strings.HasPrefix(s, "q"):
		b, err := strconv.Atoi(s[1:])
		if err != nil {
			return Spec{}, fmt.Errorf("compress: spec %q: bad bit width %q: %v", raw, s[1:], err)
		}
		if b < 1 || b > 16 {
			return Spec{}, fmt.Errorf("compress: spec %q: bit width %d out of range [1, 16]", raw, b)
		}
		sp.Kind, sp.Bits = "q", b
		return sp, nil
	}
	return Spec{}, fmt.Errorf("compress: unknown codec spec %q (want %s)", raw, specUsage)
}

// Validate checks a Spec constructed without ParseSpec.
func (sp Spec) Validate() error {
	_, err := ParseSpec(sp.String())
	return err
}

// String renders the canonical spec form, re-parseable by ParseSpec.
func (sp Spec) String() string {
	var body string
	switch sp.Kind {
	case "", "dense":
		return "dense"
	case "topk", "randk":
		body = fmt.Sprintf("%s:%g", sp.Kind, sp.Ratio)
	case "q":
		body = fmt.Sprintf("q%d", sp.Bits)
	default:
		body = sp.Kind
	}
	if sp.EF {
		return "ef+" + body
	}
	return body
}

// IsDense reports whether the spec is the identity codec.
func (sp Spec) IsDense() bool { return sp.Kind == "" || sp.Kind == "dense" }

// NewCodec builds a fresh codec instance for the spec. seed drives
// stochastic codecs (randk); deterministic specs ignore it. Each client
// must get its own instance: error-feedback residuals and scratch
// buffers live in the codec.
func (sp Spec) NewCodec(seed uint64) (Codec, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	var c Codec
	switch sp.Kind {
	case "", "dense":
		return denseCodec{}, nil
	case "topk":
		c = &topkCodec{name: Spec{Kind: "topk", Ratio: sp.Ratio}.String(), ratio: sp.Ratio}
	case "randk":
		c = &randkCodec{name: Spec{Kind: "randk", Ratio: sp.Ratio}.String(), ratio: sp.Ratio, seed: seed}
	case "q":
		c = &quantCodec{name: Spec{Kind: "q", Bits: sp.Bits}.String(), bits: sp.Bits}
	}
	if sp.EF {
		c = &efCodec{name: sp.String(), inner: c}
	}
	return c, nil
}

// EncodeDecode runs v through a fresh codec instance and returns the
// lossy reconstruction plus the payload size in bytes. It is stateless
// (no error feedback carries over) and allocates per call; the engine
// uses it to model downlink compression, where EF is disallowed anyway.
func (sp Spec) EncodeDecode(v []float64) ([]float64, int, error) {
	c, err := sp.NewCodec(0)
	if err != nil {
		return nil, 0, err
	}
	enc, payload := c.AppendEncode(nil, v)
	out := make([]float64, len(v))
	if err := DecodePayloadInto(out, enc, payload); err != nil {
		return nil, 0, err
	}
	return out, len(payload), nil
}

// ---------------------------------------------------------------------------
// Codec implementations

// denseCodec is the identity: payload is the raw little-endian floats.
type denseCodec struct{}

func (denseCodec) Name() string { return "dense" }

func (denseCodec) AppendEncode(dst []byte, v []float64) (Encoding, []byte) {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return EncDense, dst
}

// topkCodec keeps the ceil(ratio·d) largest-magnitude coordinates, the
// classic biased sparsifier that error feedback makes safe across
// rounds. The kept set follows the one top-k order (see TopKIndices).
// Selection and sparse buffers are reused, so the per-round encode
// allocates only on dimension growth.
type topkCodec struct {
	name  string
	ratio float64
	top   []int
	keys  []uint64
	s     Sparse
}

func (c *topkCodec) Name() string { return c.name }

func (c *topkCodec) AppendEncode(dst []byte, v []float64) (Encoding, []byte) {
	c.sparsify(v, keepCount(c.ratio, len(v)), nil)
	return EncSparse, c.s.AppendEncode(dst)
}

// sparsify fills c.s with the top-k (or, when pick != nil, the given
// already-sorted index set) of v, reusing buffers.
func (c *topkCodec) sparsify(v []float64, k int, pick []int) {
	if pick == nil {
		if cap(c.keys) < len(v) {
			c.keys = make([]uint64, len(v))
		}
		if cap(c.top) < k {
			c.top = make([]int, k)
		}
		pick = selectTopK(c.top[:k], c.keys[:len(v)], v)
	}
	if cap(c.s.Indices) < k {
		c.s.Indices = make([]uint32, k)
		c.s.Values = make([]float64, k)
	}
	c.s.Dim = len(v)
	c.s.Indices = c.s.Indices[:k]
	c.s.Values = c.s.Values[:k]
	for i, idx := range pick {
		c.s.Indices[i] = uint32(idx)
		c.s.Values[i] = v[idx]
	}
}

// randkCodec keeps ceil(ratio·d) uniformly random coordinates scaled by
// d/k, which makes it unbiased in expectation. Each call samples a
// fresh index set from a per-instance stream.
type randkCodec struct {
	name  string
	ratio float64
	seed  uint64
	calls uint64
	t     topkCodec
}

func (c *randkCodec) Name() string { return c.name }

func (c *randkCodec) AppendEncode(dst []byte, v []float64) (Encoding, []byte) {
	k := keepCount(c.ratio, len(v))
	rng := randx.New(randx.Derive(c.seed, fmt.Sprintf("randk/%d", c.calls)))
	c.calls++
	pick := randx.Perm(rng, len(v))[:k]
	sort.Ints(pick)
	c.t.sparsify(v, k, pick)
	scale := float64(len(v)) / float64(k)
	for i := range c.t.s.Values {
		c.t.s.Values[i] *= scale
	}
	return EncSparse, c.t.s.AppendEncode(dst)
}

// quantCodec quantizes each coordinate to bits bits, uniformly between
// the vector's min and max, reusing its code buffer.
type quantCodec struct {
	name  string
	bits  int
	codes []byte
}

func (c *quantCodec) Name() string { return c.name }

func (c *quantCodec) AppendEncode(dst []byte, v []float64) (Encoding, []byte) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if len(v) == 0 {
		lo, hi = 0, 0
	}
	n := (len(v)*c.bits + 7) / 8
	if cap(c.codes) < n {
		c.codes = make([]byte, n)
	}
	codes := c.codes[:n]
	for i := range codes {
		codes[i] = 0
	}
	q := Quantized{Dim: len(v), Bits: c.bits, Min: lo, Max: hi, Codes: codes}
	levels := float64((uint64(1) << c.bits) - 1)
	span := hi - lo
	for i, x := range v {
		var code uint64
		if span > 0 {
			code = uint64(math.Round((x - lo) / span * levels))
		}
		q.setCode(i, code)
	}
	return EncQuantized, q.AppendEncode(dst)
}

// efCodec wraps a lossy codec with error feedback: encode(v+residual),
// then keep the reconstruction error for the next round (Stich et al.,
// 2018). The residual persists for the codec's lifetime, i.e. across a
// client's rounds.
type efCodec struct {
	name      string
	inner     Codec
	residual  []float64
	corrected []float64
	recon     []float64
}

func (c *efCodec) Name() string { return c.name }

func (c *efCodec) AppendEncode(dst []byte, v []float64) (Encoding, []byte) {
	if c.residual == nil {
		c.residual = make([]float64, len(v))
		c.corrected = make([]float64, len(v))
		c.recon = make([]float64, len(v))
	}
	if len(c.residual) != len(v) {
		panic("compress: error-feedback codec dimension changed")
	}
	for i := range v {
		c.corrected[i] = v[i] + c.residual[i]
	}
	enc, out := c.inner.AppendEncode(dst, c.corrected)
	payload := out[len(dst):]
	if err := DecodePayloadInto(c.recon, enc, payload); err != nil {
		// The inner codec produced the payload; failing to re-read it is
		// a bug, not a wire condition.
		panic(fmt.Sprintf("compress: error-feedback self-decode: %v", err))
	}
	for i := range v {
		c.residual[i] = c.corrected[i] - c.recon[i]
	}
	return enc, out
}

// Residual exposes the accumulated error for tests (read-only copy).
func (c *efCodec) Residual() []float64 {
	return append([]float64(nil), c.residual...)
}
