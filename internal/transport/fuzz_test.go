package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"fedms/internal/compress"
)

// FuzzDecode asserts the wire decoder never panics and never returns a
// frame that fails invariants, no matter what bytes arrive — and that a
// Conn, whose dense models decode into recycled buffers, reads every
// input exactly as DecodeBounded does.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(&Message{Type: TypeUpload}))
	f.Add(Encode(&Message{Type: TypeUpload, Round: 3, Sender: 1, Flag: 1, Vec: []float64{1, 2, 3}}))
	f.Add(Encode(&Message{Type: TypeGlobalModel, Text: "hello", Vec: []float64{0.5}}))
	f.Add([]byte{})
	f.Add([]byte{0xD5, 0xFE, 1, 2})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	// Frames as the fault injector actually damages them: truncated
	// mid-payload, one payload bit flipped, flipped CRC bytes, and
	// length prefixes rewritten to absurd values.
	base := Encode(&Message{Type: TypeUpload, Round: 9, Sender: 2, Flag: 1,
		Text: "chaos", Vec: []float64{1.5, -2.5, 3.25}})
	fi := NewFaultInjector(FaultConfig{Seed: 99, Truncate: 1})
	if trunc, ev := fi.Link("fuzz").Mutate(base); ev.Kind == FaultTruncate {
		f.Add(trunc)
	}
	fi = NewFaultInjector(FaultConfig{Seed: 99, Corrupt: 1})
	if corr, ev := fi.Link("fuzz").Mutate(base); ev.Kind == FaultCorrupt {
		f.Add(corr)
	}
	crcFlip := append([]byte(nil), base...)
	crcFlip[len(crcFlip)-1] ^= 0xA5
	crcFlip[len(crcFlip)-4] ^= 0x5A
	f.Add(crcFlip)
	overVec := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(overVec[20:], uint32(MaxVecLen+1))
	f.Add(overVec)
	overText := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(overText[16:], uint32(MaxTextLen+1))
	f.Add(overText)

	// Version-2 frames, one per codec tag, plus the same damage classes:
	// unknown tag, corrupt payload bit, truncation, oversize length.
	vec := []float64{1.5, -2.5, 3.25, 0, -4}
	for _, spec := range []string{"dense", "topk:0.5", "q8"} {
		sp, err := compress.ParseSpec(spec)
		if err != nil {
			f.Fatal(err)
		}
		c, err := sp.NewCodec(7)
		if err != nil {
			f.Fatal(err)
		}
		enc, payload := c.AppendEncode(nil, vec)
		f.Add(Encode(&Message{Type: TypeUpload, Round: 5, Sender: 1, Flag: 1,
			Enc: enc, Payload: payload}))
	}
	sparse := &compress.Sparse{Dim: 5, Indices: []uint32{1, 3}, Values: []float64{2, -2}}
	baseV2 := Encode(&Message{Type: TypeGlobalModel, Round: 6, Sender: 0,
		Enc: compress.EncSparse, Payload: sparse.AppendEncode(nil)})
	unknownTag := append([]byte(nil), baseV2...)
	unknownTag[16] = 200
	f.Add(unknownTag)
	v2Corrupt := append([]byte(nil), baseV2...)
	v2Corrupt[headerLenV2+3] ^= 0x10
	f.Add(v2Corrupt)
	f.Add(baseV2[:headerLenV2+5])
	v2Over := append([]byte(nil), baseV2...)
	binary.LittleEndian.PutUint32(v2Over[21:], uint32(MaxPayloadLen+1))
	f.Add(v2Over)

	// Forged-length headers: claims at the protocol maxima (legal per
	// header, astronomically larger than the body that follows), claims
	// straddling the fuzz cap below by one byte in each direction, and a
	// max-claim truncated right after the header. The decoder must hit
	// its bounded-allocation path on all of them — the allocation gate
	// itself is TestDecodeOversizeClaimBounded; under fuzz these inputs
	// drive the discard/reject paths through arbitrary mutations.
	maxClaimV1 := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(maxClaimV1[20:], uint32(MaxVecLen))
	f.Add(maxClaimV1)
	f.Add(maxClaimV1[:headerLen])
	maxClaimV2 := append([]byte(nil), baseV2...)
	binary.LittleEndian.PutUint32(maxClaimV2[22:], uint32(MaxPayloadLen))
	f.Add(maxClaimV2)
	f.Add(maxClaimV2[:headerLenV2])
	const fuzzCap = 1 << 20
	capEdge := append([]byte(nil), baseV2...)
	binary.LittleEndian.PutUint32(capEdge[18:], 0)
	binary.LittleEndian.PutUint32(capEdge[22:], uint32(fuzzCap-4)) // body == cap
	f.Add(capEdge)
	capOver := append([]byte(nil), baseV2...)
	binary.LittleEndian.PutUint32(capOver[22:], uint32(fuzzCap-3)) // body == cap+1
	f.Add(capOver)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The cap mirrors a real receiver: every Conn decodes through a
		// body bound (the hello-phase cap pre-admission, the protocol
		// maxima after). Fuzzing the bounded path keeps a forged 512 MB
		// length claim from being materialized on every mutation.
		m, err := DecodeBounded(bytes.NewReader(data), fuzzCap)
		recvPooled(t, data, fuzzCap, m, err)
		if err != nil {
			return
		}
		// A successfully decoded frame must re-encode to valid bytes
		// that decode to the same message.
		again, err := Decode(bytes.NewReader(Encode(m)))
		if err != nil {
			t.Fatalf("re-decode of valid frame failed: %v", err)
		}
		if again.Type != m.Type || again.Round != m.Round || again.Sender != m.Sender ||
			again.Flag != m.Flag || again.Text != m.Text || len(again.Vec) != len(m.Vec) {
			t.Fatal("decode/encode/decode not idempotent")
		}
		if again.Enc != m.Enc || !bytes.Equal(again.Payload, m.Payload) ||
			(again.Payload == nil) != (m.Payload == nil) {
			t.Fatal("v2 payload not idempotent across decode/encode/decode")
		}
	})
}

// recvPooled reads data through a Conn under the same body cap, after a
// primer frame whose model buffer was released: a dense model of up to
// 64 coordinates is decoded into recycled memory full of sentinel NaNs.
// The Conn must accept or reject exactly as DecodeBounded did (want,
// wantErr), with bit-identical fields and nothing left over from the
// recycled buffer. A frame handed back with Unread must come out of the
// next Recv as the same message, without a read or a deadline.
func recvPooled(t *testing.T, data []byte, maxBody int, want *Message, wantErr error) {
	primer := make([]float64, 64)
	for i := range primer {
		primer[i] = math.Float64frombits(0x7FF8DEAD00000000 | uint64(i))
	}
	nc := &countingNetConn{r: io.MultiReader(
		bytes.NewReader(Encode(&Message{Type: TypeGlobalModel, Vec: primer})), bytes.NewReader(data))}
	c := NewConn(nc)
	c.Timeout = time.Minute
	old, err := c.Recv()
	if err != nil {
		t.Fatalf("primer frame: %v", err)
	}
	c.Release(old)
	c.SetMaxBodyLen(maxBody)
	got, err := c.Recv()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Conn.Recv error %v, DecodeBounded error %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if got.Type != want.Type || got.Round != want.Round || got.Sender != want.Sender ||
		got.Flag != want.Flag || got.Text != want.Text || got.Stale != want.Stale ||
		got.Enc != want.Enc || !bytes.Equal(got.Payload, want.Payload) ||
		(got.Payload == nil) != (want.Payload == nil) || len(got.Vec) != len(want.Vec) {
		t.Fatalf("Conn.Recv read %+v, DecodeBounded %+v", got, want)
	}
	for i := range got.Vec {
		if math.Float64bits(got.Vec[i]) != math.Float64bits(want.Vec[i]) {
			t.Fatalf("Vec[%d] bits %#x, want %#x: recycled buffer leaked through",
				i, math.Float64bits(got.Vec[i]), math.Float64bits(want.Vec[i]))
		}
	}
	reads, arms := nc.reads, nc.arms
	c.Unread(got)
	again, err := c.Recv()
	if err != nil || again != got {
		t.Fatalf("Recv after Unread = %p, %v; want the unread message %p", again, err, got)
	}
	if nc.reads != reads || nc.arms != arms {
		t.Fatalf("Recv after Unread did I/O: %d reads, %d deadlines", nc.reads-reads, nc.arms-arms)
	}
}

// countingNetConn is a net.Conn whose reads come from r; it counts
// every Read and every read deadline armed.
type countingNetConn struct {
	net.Conn
	r           io.Reader
	reads, arms int
}

func (c *countingNetConn) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

func (c *countingNetConn) SetReadDeadline(time.Time) error {
	c.arms++
	return nil
}
