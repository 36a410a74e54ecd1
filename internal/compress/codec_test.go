package compress

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"fedms/internal/randx"
)

func TestParseSpecCanonical(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "dense"},
		{"dense", "dense"},
		{"none", "dense"},
		{"  Dense ", "dense"},
		{"topk:0.05", "topk:0.05"},
		{"TOPK:0.5", "topk:0.5"},
		{"randk:1", "randk:1"},
		{"q8", "q8"},
		{"q1", "q1"},
		{"q16", "q16"},
		{"ef+topk:0.1", "ef+topk:0.1"},
		{"ef+q4", "ef+q4"},
		{"ef+randk:0.25", "ef+randk:0.25"},
	}
	for _, c := range cases {
		sp, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got := sp.String(); got != c.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// The canonical form must re-parse to the same spec.
		again, err := ParseSpec(sp.String())
		if err != nil || again != sp {
			t.Errorf("canonical %q did not round-trip: %+v vs %+v (%v)", sp, again, sp, err)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"gzip", "topk", "topk:", "topk:0", "topk:1.5", "topk:-0.1", "topk:x",
		"randk:0", "randk:2", "q0", "q17", "q", "qx", "ef+dense", "ef+", "ef+gzip",
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", s)
		}
	}
}

func TestSpecValidateMatchesParse(t *testing.T) {
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("zero Spec must be valid dense: %v", err)
	}
	if err := (Spec{Kind: "topk", Ratio: 2}).Validate(); err == nil {
		t.Fatal("out-of-range ratio must fail Validate")
	}
	if err := (Spec{Kind: "q", Bits: 32}).Validate(); err == nil {
		t.Fatal("out-of-range bits must fail Validate")
	}
}

// codecTestVec builds a deterministic dense vector with a few dominant
// coordinates so top-k selection is unambiguous.
func codecTestVec(seed uint64, d int) []float64 {
	v := make([]float64, d)
	randx.Normal(randx.New(seed), v, 0, 1)
	v[0], v[d/2], v[d-1] = 40, -35, 30
	return v
}

func TestCodecRoundTripAllSpecs(t *testing.T) {
	const d = 257
	v := codecTestVec(7, d)
	for _, spec := range []string{"dense", "topk:0.1", "randk:0.1", "q8", "ef+topk:0.1", "ef+q8"} {
		sp, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sp.NewCodec(11)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != sp.String() {
			t.Errorf("%s: Name() = %q, want %q", spec, c.Name(), sp.String())
		}
		// AppendEncode must append after an existing prefix.
		prefix := []byte("hdr")
		enc, out := c.AppendEncode(append([]byte(nil), prefix...), v)
		if !bytes.HasPrefix(out, prefix) {
			t.Fatalf("%s: AppendEncode clobbered the prefix", spec)
		}
		payload := out[len(prefix):]
		if !KnownEncoding(enc) {
			t.Fatalf("%s: unknown encoding tag %d", spec, enc)
		}
		dim, err := PayloadDim(enc, payload)
		if err != nil || dim != d {
			t.Fatalf("%s: PayloadDim = %d, %v; want %d", spec, dim, err, d)
		}
		got, err := DecodePayload(enc, payload)
		if err != nil {
			t.Fatalf("%s: DecodePayload: %v", spec, err)
		}
		if len(got) != d {
			t.Fatalf("%s: decoded %d coords, want %d", spec, len(got), d)
		}
		if spec == "dense" {
			for i := range v {
				if got[i] != v[i] {
					t.Fatalf("dense codec must be exact at %d: %v vs %v", i, got[i], v[i])
				}
			}
		}
		// The dominant coordinates survive every lossy codec here.
		if math.Abs(got[0]-v[0]) > math.Abs(v[0])/2 && sp.Kind != "randk" {
			t.Errorf("%s: dominant coordinate lost: %v vs %v", spec, got[0], v[0])
		}
	}
}

// newTestCodec builds a fresh codec for spec, failing the test on a
// bad spec.
func newTestCodec(t testing.TB, spec string, seed uint64) Codec {
	t.Helper()
	sp, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sp.NewCodec(seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// encodeRead encodes v once with c and reads the payload back through
// both readers (readBoth).
func encodeRead(t *testing.T, c Codec, v []float64) []float64 {
	t.Helper()
	enc, payload := c.AppendEncode(nil, v)
	return readBoth(t, enc, payload)
}

// readBoth reads a payload through both readers — the ParsePayload view
// and DecodePayloadInto — and returns the dense vector once they agree
// bit for bit.
func readBoth(t *testing.T, enc Encoding, payload []byte) []float64 {
	t.Helper()
	view, err := ParsePayload(enc, payload)
	if err != nil {
		t.Fatalf("ParsePayload: %v", err)
	}
	got := view.DenseView()
	into := make([]float64, view.Dim())
	if err := DecodePayloadInto(into, enc, payload); err != nil {
		t.Fatalf("DecodePayloadInto: %v", err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(into[i]) {
			t.Fatalf("coord %d: ParsePayload %v, DecodePayloadInto %v", i, got[i], into[i])
		}
	}
	return got
}

// rejectBoth fails unless both readers reject payload with ErrPayload;
// dim sizes DecodePayloadInto's target.
func rejectBoth(t *testing.T, what string, dim int, enc Encoding, payload []byte) {
	t.Helper()
	if _, err := ParsePayload(enc, payload); !errors.Is(err, ErrPayload) {
		t.Errorf("%s: ParsePayload: got %v, want ErrPayload", what, err)
	}
	if err := DecodePayloadInto(make([]float64, dim), enc, payload); !errors.Is(err, ErrPayload) {
		t.Errorf("%s: DecodePayloadInto: got %v, want ErrPayload", what, err)
	}
}

func TestDecodeSparseRejectsDuplicateIndices(t *testing.T) {
	s := Sparse{Dim: 10, Indices: []uint32{3, 3}, Values: []float64{1, 2}}
	rejectBoth(t, "duplicate indices", 10, EncSparse, s.AppendEncode(nil))
}

func TestDecodeSparseRejectsOutOfOrderIndices(t *testing.T) {
	s := Sparse{Dim: 10, Indices: []uint32{5, 2}, Values: []float64{1, 2}}
	rejectBoth(t, "out-of-order indices", 10, EncSparse, s.AppendEncode(nil))
}

func TestDecodeSparseRejectsOutOfRangeIndex(t *testing.T) {
	s := Sparse{Dim: 10, Indices: []uint32{2, 10}, Values: []float64{1, 2}}
	rejectBoth(t, "out-of-range index", 10, EncSparse, s.AppendEncode(nil))
}

func TestDecodeSparseAcceptsStrictlyIncreasing(t *testing.T) {
	s := Sparse{Dim: 10, Indices: []uint32{0, 4, 9}, Values: []float64{1, 2, 3}}
	dense := readBoth(t, EncSparse, s.AppendEncode(nil))
	if dense[0] != 1 || dense[4] != 2 || dense[9] != 3 {
		t.Fatalf("scatter wrong: %v", dense)
	}
}

func TestDecodePayloadUnknownEncoding(t *testing.T) {
	if _, err := DecodePayload(Encoding(9), []byte{1, 2, 3}); !errors.Is(err, ErrPayload) {
		t.Fatalf("unknown encoding accepted: %v", err)
	}
	if err := DecodePayloadInto(make([]float64, 1), Encoding(9), nil); !errors.Is(err, ErrPayload) {
		t.Fatalf("unknown encoding accepted by Into: %v", err)
	}
}

func TestDecodePayloadIntoDimMismatch(t *testing.T) {
	sp, _ := ParseSpec("q8")
	c, _ := sp.NewCodec(0)
	enc, payload := c.AppendEncode(nil, codecTestVec(3, 64))
	if err := DecodePayloadInto(make([]float64, 63), enc, payload); !errors.Is(err, ErrPayload) {
		t.Fatalf("dim mismatch accepted: %v", err)
	}
}

// TestErrorFeedbackResidualBounded: with bounded inputs, the EF residual
// must not blow up over many rounds — the compression error is fed back
// and re-compressed, never accumulated unboundedly.
func TestErrorFeedbackResidualBounded(t *testing.T) {
	const d, rounds = 128, 300
	sp, _ := ParseSpec("ef+topk:0.1")
	c, err := sp.NewCodec(3)
	if err != nil {
		t.Fatal(err)
	}
	ef := c.(*efCodec)
	rng := randx.New(99)
	v := make([]float64, d)
	var buf []byte
	for r := 0; r < rounds; r++ {
		randx.Normal(rng, v, 0, 1)
		_, buf = c.AppendEncode(buf[:0], v)
		var norm float64
		for _, x := range ef.Residual() {
			norm = math.Max(norm, math.Abs(x))
		}
		// Inputs are N(0,1): an exploding feedback loop would push the
		// residual sup-norm far beyond the input scale within 300 rounds.
		if norm > 50 {
			t.Fatalf("round %d: residual sup-norm %v diverged", r, norm)
		}
	}
}

// TestErrorFeedbackMeanConvergesToDense: recon_t = v + r_{t-1} - r_t
// telescopes, so the time-average of ef+topk reconstructions of a fixed
// vector converges to the vector itself — the property that makes EF
// uploads unbiased in the long run where plain top-k stalls.
func TestErrorFeedbackMeanConvergesToDense(t *testing.T) {
	const d, rounds = 64, 400
	v := codecTestVec(21, d)
	sp, _ := ParseSpec("ef+topk:0.1")
	c, err := sp.NewCodec(5)
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]float64, d)
	recon := make([]float64, d)
	var buf []byte
	for r := 0; r < rounds; r++ {
		enc, out := c.AppendEncode(buf[:0], v)
		buf = out
		if err := DecodePayloadInto(recon, enc, buf); err != nil {
			t.Fatal(err)
		}
		for i := range sum {
			sum[i] += recon[i]
		}
	}
	for i := range sum {
		mean := sum[i] / rounds
		if math.Abs(mean-v[i]) > 0.2 {
			t.Fatalf("coord %d: EF mean %v, dense %v", i, mean, v[i])
		}
	}
}

// TestCodecDeterministicPerSeed: two instances with the same spec and
// seed must emit byte-identical payload sequences — the property the
// engine/distributed parity tests build on.
func TestCodecDeterministicPerSeed(t *testing.T) {
	const d = 96
	for _, spec := range []string{"topk:0.2", "randk:0.2", "q6", "ef+topk:0.2"} {
		sp, _ := ParseSpec(spec)
		a, err := sp.NewCodec(42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sp.NewCodec(42)
		if err != nil {
			t.Fatal(err)
		}
		rng := randx.New(1)
		v := make([]float64, d)
		for r := 0; r < 5; r++ {
			randx.Normal(rng, v, 0, 1)
			encA, bufA := a.AppendEncode(nil, v)
			encB, bufB := b.AppendEncode(nil, v)
			if encA != encB || !bytes.Equal(bufA, bufB) {
				t.Fatalf("%s round %d: same seed, different payloads", spec, r)
			}
		}
		// A different seed must change randk's sampled support.
		if sp.Kind == "randk" {
			other, _ := sp.NewCodec(43)
			randx.Normal(rng, v, 0, 1)
			_, bufA := a.AppendEncode(nil, v)
			_, bufO := other.AppendEncode(nil, v)
			if bytes.Equal(bufA, bufO) {
				t.Fatal("randk: different seeds produced identical payloads")
			}
		}
	}
}

func TestSpecEncodeDecodeMatchesCodec(t *testing.T) {
	const d = 80
	v := codecTestVec(9, d)
	sp, _ := ParseSpec("q8")
	got, n, err := sp.EncodeDecode(v)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := sp.NewCodec(0)
	enc, payload := c.AppendEncode(nil, v)
	if n != len(payload) {
		t.Fatalf("EncodeDecode bytes = %d, payload = %d", n, len(payload))
	}
	want := make([]float64, d)
	if err := DecodePayloadInto(want, enc, payload); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EncodeDecode diverges from codec at %d", i)
		}
	}
}

// TestDenseWireRoundTrips pins the one dense-as-bytes helper against the
// parser it must round-trip with: ParsePayload(EncDense, DenseWire(v))
// reconstructs v bit for bit, special values included.
func TestDenseWireRoundTrips(t *testing.T) {
	v := []float64{1.5, -0.0, math.Inf(-1), math.SmallestNonzeroFloat64, math.NaN(), 3}
	view, err := ParsePayload(EncDense, DenseWire(v))
	if err != nil {
		t.Fatal(err)
	}
	got := view.DenseView()
	if len(got) != len(v) {
		t.Fatalf("dim %d, want %d", len(got), len(v))
	}
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
			t.Fatalf("coord %d: %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(v[i]))
		}
	}
}

// BenchmarkCodec times AppendEncode into a reused buffer and
// DecodePayloadInto a reused vector at d = 1e5, and reports each
// spec's frame size. encode/topk:0.1/all-ties encodes a vector of one
// repeated value, the input that turns a top-k selection without a
// three-way partition quadratic.
func BenchmarkCodec(b *testing.B) {
	const d = 100_000
	v := make([]float64, d)
	randx.Normal(randx.New(5), v, 0, 1)
	dst := make([]float64, d)
	ties := make([]float64, d)
	for i := range ties {
		ties[i] = 1
	}
	b.Run("encode/topk:0.1/all-ties", func(b *testing.B) {
		c, err := Spec{Kind: "topk", Ratio: 0.1}.NewCodec(1)
		if err != nil {
			b.Fatal(err)
		}
		_, buf := c.AppendEncode(nil, ties)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, buf = c.AppendEncode(buf[:0], ties)
		}
	})
	for _, spec := range []string{"dense", "topk:0.1", "q8", "ef+topk:0.1"} {
		sp, err := ParseSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		c, err := sp.NewCodec(1)
		if err != nil {
			b.Fatal(err)
		}
		enc, buf := c.AppendEncode(nil, v)
		b.Run("encode/"+spec, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(buf)), "frame_bytes")
			for i := 0; i < b.N; i++ {
				enc, buf = c.AppendEncode(buf[:0], v)
			}
		})
		b.Run("decode/"+spec, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := DecodePayloadInto(dst, enc, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
