package transport

import (
	"bytes"
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
