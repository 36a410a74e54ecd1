package transport

import (
	"bytes"
	"math"
	"testing"

	"fedms/internal/compress"
	"fedms/internal/golden"
)

// TestGoldenStaleUploadFrame pins the v2 wire bytes of a stale-tagged
// upload — the frame an async client's backlog sends and the PS round
// reader admits down-weighted: encoding the fixed message must
// reproduce the committed vector, and the committed vector must decode
// to the same message with a parseable payload. Generated at commit
// b0f2c4c, before the round-lifecycle unification.
func TestGoldenStaleUploadFrame(t *testing.T) {
	spec, err := compress.ParseSpec("topk:0.5")
	if err != nil {
		t.Fatal(err)
	}
	codec, err := spec.NewCodec(1)
	if err != nil {
		t.Fatal(err)
	}
	enc, payload := codec.AppendEncode(nil, []float64{1.5, -2.25, 0, 3.125, -0.5, 8})
	msg := &Message{
		Type: TypeUpload, Round: 5, Sender: 3, Flag: 1,
		Stale: 2, Enc: enc, Payload: payload,
	}
	pinned := golden.Check(t, "testdata/upload_v2_stale.hex", Encode(msg))

	m, err := Decode(bytes.NewReader(pinned))
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	if m.Type != msg.Type || m.Round != msg.Round || m.Sender != msg.Sender || m.Flag != msg.Flag ||
		m.Stale != msg.Stale || m.Enc != msg.Enc || !bytes.Equal(m.Payload, msg.Payload) {
		t.Fatalf("Decode(golden) = %+v, want %+v", m, msg)
	}
	if pl, err := m.ModelPayload(); err != nil || pl.Dim() != 6 {
		t.Fatalf("golden payload: dim %d, %v", pl.Dim(), err)
	}
}

// goldenGlobalModel is the dense frame the v1 goldens pin: a PS's
// global model with text, whose vector holds the values a bytewise
// codec is most likely to get wrong — a negative zero, a NaN with a
// non-default payload, an infinity and a subnormal.
func goldenGlobalModel() *Message {
	return &Message{
		Type: TypeGlobalModel, Round: 7, Sender: 2, Flag: 1, Text: "ps2",
		Vec: []float64{1.5, -2.25, math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef),
			math.Inf(-1), 5e-324, math.Pi},
	}
}

// checkGoldenGlobalModel fails unless m carries every field and every
// bit of goldenGlobalModel.
func checkGoldenGlobalModel(t *testing.T, m *Message) {
	t.Helper()
	want := goldenGlobalModel()
	if m.Type != want.Type || m.Round != want.Round || m.Sender != want.Sender || m.Flag != want.Flag ||
		m.Text != want.Text || m.Payload != nil || len(m.Vec) != len(want.Vec) {
		t.Fatalf("decoded %+v, want %+v", m, want)
	}
	for i := range want.Vec {
		if math.Float64bits(m.Vec[i]) != math.Float64bits(want.Vec[i]) {
			t.Fatalf("vec[%d] = %#x, want %#x", i, math.Float64bits(m.Vec[i]), math.Float64bits(want.Vec[i]))
		}
	}
}

// TestGoldenGlobalModelFrame pins the v1 wire bytes of a dense global
// model: encoding the fixed message must reproduce the committed
// vector, and the vector must decode back to the same fields and bits.
// Generated at commit 3b858af, before the byte-view codec.
func TestGoldenGlobalModelFrame(t *testing.T) {
	pinned := golden.Check(t, "testdata/global_model_v1.hex", Encode(goldenGlobalModel()))
	m, err := Decode(bytes.NewReader(pinned))
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	checkGoldenGlobalModel(t, m)
}

// TestGoldenGlobalModelFrameKeyed pins the same frame as a keyed Conn
// sends it — the frame followed by its HMAC-SHA256 tag — so frame and
// tag are pinned together, and a keyed Conn must accept the vector.
// Generated at commit 3b858af, before the byte-view codec.
func TestGoldenGlobalModelFrameKeyed(t *testing.T) {
	key := []byte("golden-secret")
	var sent bytes.Buffer
	c := NewConn(writerNetConn{w: &sent})
	c.SetKey(key)
	if err := c.Send(goldenGlobalModel()); err != nil {
		t.Fatal(err)
	}
	pinned := golden.Check(t, "testdata/global_model_v1_keyed.hex", sent.Bytes())

	r := NewConn(readerNetConn{r: bytes.NewReader(pinned)})
	r.SetKey(key)
	m, err := r.Recv()
	if err != nil {
		t.Fatalf("keyed Recv(golden): %v", err)
	}
	checkGoldenGlobalModel(t, m)
}
