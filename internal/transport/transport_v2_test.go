package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"fedms/internal/compress"
)

// codecPayload builds a real codec payload for the given spec.
func codecPayload(t *testing.T, spec string, v []float64) (compress.Encoding, []byte) {
	t.Helper()
	sp, err := compress.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sp.NewCodec(1)
	if err != nil {
		t.Fatal(err)
	}
	enc, payload := c.AppendEncode(nil, v)
	return enc, payload
}

func TestV2RoundTripPerEncoding(t *testing.T) {
	v := []float64{1.5, -2.25, 0, 3.75, -0.5}
	for _, spec := range []string{"dense", "topk:0.5", "q8"} {
		enc, payload := codecPayload(t, spec, v)
		m := &Message{
			Type: TypeUpload, Round: 12, Sender: 3, Flag: 1, Text: "x",
			Stale: 2, Enc: enc, Payload: payload,
		}
		frame := Encode(m)
		if frame[2] != Version2 {
			t.Fatalf("%s: frame version = %d, want %d", spec, frame[2], Version2)
		}
		got, err := Decode(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got.Enc != enc || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("%s: payload did not round-trip", spec)
		}
		if got.Type != m.Type || got.Round != m.Round || got.Sender != m.Sender ||
			got.Flag != m.Flag || got.Text != m.Text || got.Vec != nil || got.Stale != 2 {
			t.Fatalf("%s: header fields did not round-trip: %+v", spec, got)
		}
		view, err := got.ModelPayload()
		if err != nil {
			t.Fatalf("%s: ModelPayload: %v", spec, err)
		}
		if vec := view.DenseView(); len(vec) != len(v) {
			t.Fatalf("%s: decoded dim %d, want %d", spec, len(vec), len(v))
		}
		if got.ModelWireBytes() != len(payload) {
			t.Fatalf("%s: ModelWireBytes = %d, want %d", spec, got.ModelWireBytes(), len(payload))
		}
	}
}

// TestDenseMessageStaysV1 is the wire-compatibility contract: a message
// without a codec payload must encode exactly as the version-1 frame
// format, so dense deployments are byte-identical to the pre-codec
// protocol.
func TestDenseMessageStaysV1(t *testing.T) {
	m := &Message{Type: TypeGlobalModel, Round: 4, Sender: 1, Text: "hi", Vec: []float64{1, 2, 3}}
	frame := Encode(m)
	if frame[2] != Version {
		t.Fatalf("dense frame version = %d, want %d", frame[2], Version)
	}
	if len(frame) != headerLen+len(m.Text)+8*len(m.Vec)+4 {
		t.Fatalf("dense frame length = %d, want v1 layout", len(frame))
	}
	got, err := Decode(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload != nil {
		t.Fatal("v1 frame decoded with a payload")
	}
	view, err := got.ModelPayload()
	if err != nil {
		t.Fatalf("ModelPayload: %v", err)
	}
	if vec := view.DenseView(); len(vec) != 3 || vec[0] != 1 {
		t.Fatalf("ModelPayload dense view = %v", vec)
	}
	if got.ModelWireBytes() != 24 {
		t.Fatalf("ModelWireBytes = %d, want 24", got.ModelWireBytes())
	}
}

// TestV2UnknownEncodingKeepsStreamAligned: a frame with an unknown codec
// tag must fail with ErrBadPayload only after the whole frame is
// consumed, so the next frame on the stream still decodes.
func TestV2UnknownEncodingKeepsStreamAligned(t *testing.T) {
	bad := Encode(&Message{Type: TypeUpload, Round: 1, Enc: compress.Encoding(9), Payload: []byte{1, 2, 3}})
	good := Encode(&Message{Type: TypeDone, Round: 2})
	r := bytes.NewReader(append(append([]byte(nil), bad...), good...))

	if _, err := Decode(r); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("unknown tag: got %v, want ErrBadPayload", err)
	}
	m, err := Decode(r)
	if err != nil || m.Type != TypeDone || m.Round != 2 {
		t.Fatalf("stream misaligned after bad payload: %+v, %v", m, err)
	}
}

// TestV2MalformedPayloadFailsInModelPayload: Decode only checks the
// tag; a structurally bad payload with a valid checksum decodes as a
// frame and fails in ModelPayload, again wrapping ErrBadPayload.
func TestV2MalformedPayloadFailsInModelPayload(t *testing.T) {
	m := &Message{Type: TypeUpload, Enc: compress.EncSparse, Payload: []byte{1, 2, 3}}
	got, err := Decode(bytes.NewReader(Encode(m)))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if _, err := got.ModelPayload(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("ModelPayload: got %v, want ErrBadPayload", err)
	}
}

func TestV2EmptyPayloadStaysV2(t *testing.T) {
	m := &Message{Type: TypeUpload, Enc: compress.EncDense, Payload: []byte{}}
	got, err := Decode(bytes.NewReader(Encode(m)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload == nil {
		t.Fatal("empty payload decoded to nil: message would re-encode as v1")
	}
	again := Encode(got)
	if again[2] != Version2 {
		t.Fatal("empty-payload frame did not re-encode as v2")
	}
}

func TestV2CorruptPayloadIsChecksumError(t *testing.T) {
	enc, payload := codecPayload(t, "q8", []float64{1, 2, 3, 4})
	frame := Encode(&Message{Type: TypeUpload, Enc: enc, Payload: payload})
	frame[headerLenV2+2] ^= 0x40 // flip a payload bit
	if _, err := Decode(bytes.NewReader(frame)); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("got %v, want ErrBadChecksum", err)
	}
}

func TestV2OversizePayloadRejected(t *testing.T) {
	enc, payload := codecPayload(t, "q8", []float64{1, 2})
	frame := Encode(&Message{Type: TypeUpload, Enc: enc, Payload: payload})
	binary.LittleEndian.PutUint32(frame[headerLenV2-4:], uint32(MaxPayloadLen+1))
	if _, err := Decode(bytes.NewReader(frame)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestV2ConnSendRecv(t *testing.T) {
	a, b := pipePair(t)
	enc, payload := codecPayload(t, "topk:0.5", []float64{5, -4, 3, -2, 1, 0.5})
	want := &Message{Type: TypeUpload, Round: 3, Sender: 7, Flag: 1, Enc: enc, Payload: payload}
	go func() {
		if err := a.Send(want); err != nil {
			t.Error(err)
		}
	}()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Enc != want.Enc || !bytes.Equal(got.Payload, want.Payload) || got.Round != 3 {
		t.Fatalf("v2 frame over TCP did not round-trip: %+v", got)
	}
}

// TestV2AuthenticatedBadPayloadSkippable: on an authenticated conn a
// frame rejected for its payload must also consume its MAC tag, so the
// next authenticated frame still verifies.
func TestV2AuthenticatedBadPayloadSkippable(t *testing.T) {
	a, b := pipePair(t)
	key := []byte("secret")
	a.SetKey(key)
	b.SetKey(key)
	go func() {
		if err := a.Send(&Message{Type: TypeUpload, Round: 1, Enc: compress.Encoding(9), Payload: []byte{1}}); err != nil {
			t.Error(err)
		}
		if err := a.Send(&Message{Type: TypeDone, Round: 2}); err != nil {
			t.Error(err)
		}
	}()
	if _, err := b.Recv(); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("got %v, want ErrBadPayload", err)
	}
	m, err := b.Recv()
	if err != nil || m.Type != TypeDone {
		t.Fatalf("authenticated stream misaligned after bad payload: %+v, %v", m, err)
	}
}
