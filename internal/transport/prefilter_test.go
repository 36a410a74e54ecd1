package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

// helloFrame builds a well-formed hello with a vec of the given length.
func helloFrame(vecLen int, text string) []byte {
	vec := make([]float64, vecLen)
	for i := range vec {
		vec[i] = float64(i) * 0.5
	}
	return Encode(&Message{Type: TypeHello, Sender: 1, Flag: 1, Text: text, Vec: vec})
}

func TestHelloPrefilterVerdicts(t *testing.T) {
	hello := helloFrame(3, HelloCodecV2)
	overCap := helloFrame((HelloMaxBodyLen/8)+2, "")
	notHello := Encode(&Message{Type: TypeUpload, Flag: 1, Vec: []float64{1}})
	badMagic := append([]byte(nil), hello...)
	badMagic[0] ^= 0xFF
	badVersion := append([]byte(nil), hello...)
	badVersion[2] = 99
	overProto := append([]byte(nil), hello...)
	binary.LittleEndian.PutUint32(overProto[20:], uint32(MaxVecLen+1))

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"valid hello", hello, nil},
		{"hello over hello cap", overCap, ErrOversizeFrame},
		{"not a hello", notHello, ErrNotHello},
		{"bad magic", badMagic, ErrBadMagic},
		{"bad version", badVersion, ErrBadVersion},
		{"claim over protocol max", overProto, ErrTooLarge},
	}
	for _, tc := range cases {
		// Feed the header byte by byte: the prefilter must ask for more
		// until it can rule, and must rule identically at every prefix
		// length that suffices.
		n := 1
		for {
			if n > len(tc.data) {
				t.Fatalf("%s: prefilter never ruled within %d header bytes", tc.name, len(tc.data))
			}
			need, err := HelloPrefilter(tc.data[:n], HelloMaxBodyLen)
			if need > 0 {
				if err != nil {
					t.Fatalf("%s: need %d with error %v", tc.name, need, err)
				}
				n = need
				continue
			}
			if !errors.Is(err, tc.want) && err != tc.want {
				t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
			}
			break
		}
	}
}

// TestHelloPrefilterRejectZeroAlloc is half of the prefilter property:
// every rejection allocates zero bytes. The filter reads peeked header
// bytes and returns sentinel errors — there is nothing to allocate.
func TestHelloPrefilterRejectZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race; make verify runs this gate in a dedicated no-race stage")
	}
	junk := []byte("GET / HTTP/1.1\r\n\r\n")
	notHello := Encode(&Message{Type: TypeUpload, Flag: 1, Vec: []float64{1}})
	oversize := helloFrame((HelloMaxBodyLen/8)+2, "")
	for _, data := range [][]byte{junk, notHello, oversize} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := HelloPrefilter(data, HelloMaxBodyLen); err == nil {
				t.Fatal("rejection case passed the prefilter")
			}
		}); n != 0 {
			t.Fatalf("prefilter rejection allocated %.0f times", n)
		}
	}
}

// TestPrefilterDecodeAgreement is the other half of the property: every
// frame the prefilter admits is one the (equally capped) decoder
// accepts. Valid hellos across both wire versions, text/vec shapes and
// body sizes up to the cap must pass both layers; corrupted headers
// must be rejected by the prefilter before the decoder ever runs.
func TestPrefilterDecodeAgreement(t *testing.T) {
	var admitted [][]byte
	for _, vecLen := range []int{0, 1, 3, 64, (HelloMaxBodyLen - 64) / 8} {
		for _, text := range []string{"", HelloCodecV2, HelloCodecV2 + ",tok:deadbeef"} {
			admitted = append(admitted, helloFrame(vecLen, text))
		}
	}
	for i, data := range admitted {
		need := 4
		for {
			more, err := HelloPrefilter(data[:need], HelloMaxBodyLen)
			if err != nil {
				t.Fatalf("case %d: prefilter rejected a valid hello: %v", i, err)
			}
			if more == 0 {
				break
			}
			need = more
		}
		if _, err := DecodeBounded(bytes.NewReader(data), HelloMaxBodyLen); err != nil {
			t.Fatalf("case %d: prefilter admitted what Decode rejects: %v", i, err)
		}
	}
	// Header corruptions: flip each header byte in turn; whenever the
	// prefilter rejects, it must do so on the header alone (zero body
	// bytes consumed is structural — it only sees peeked bytes).
	base := helloFrame(4, HelloCodecV2)
	rejected := 0
	for off := 0; off < headerLen; off++ {
		mut := append([]byte(nil), base...)
		mut[off] ^= 0xFF
		if _, err := HelloPrefilter(mut[:headerLen], HelloMaxBodyLen); err != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no header corruption was caught by the prefilter")
	}
}

// TestDecodeOversizeClaimBounded is the Decode allocation gate: a
// forged length field claiming the protocol-maximum body (512 MB) must
// not make a capped decoder allocate anywhere near the claim — the
// oversize claim is chunk-read to rejection, bounded by the hello cap.
// Run without -race (AllocsPerRun is unreliable under the race
// detector); the Makefile pins a dedicated stage.
func TestDecodeOversizeClaimBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race; make verify runs this gate in a dedicated no-race stage")
	}
	// A max-claim v1 header with only a sliver of body behind it, and a
	// v2 frame whose full (valid-CRC) body exceeds the cap.
	forged := helloFrame(4, "")
	binary.LittleEndian.PutUint32(forged[20:], uint32(MaxVecLen))
	overV2 := Encode(&Message{Type: TypeUpload, Flag: 1, Enc: 0,
		Payload: bytes.Repeat([]byte{7}, 64<<10)})

	for name, data := range map[string][]byte{"forged max-claim": forged, "real oversize": overV2} {
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		const runs = 64
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			r.Reset(data)
			if _, err := DecodeBounded(r, HelloMaxBodyLen); err == nil {
				t.Fatalf("%s: oversize claim decoded", name)
			}
		}
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / runs
		if perOp > HelloMaxBodyLen {
			t.Fatalf("%s: capped decode allocated %d B/op, over the %d B hello cap", name, perOp, HelloMaxBodyLen)
		}
	}
}

// TestDecodeBoundedStreamAlignment: rejecting an oversize frame must
// consume it exactly, so the next frame on the stream still decodes —
// the property that lets a tolerant reader skip and keep going.
func TestDecodeBoundedStreamAlignment(t *testing.T) {
	big := Encode(&Message{Type: TypeUpload, Flag: 1, Vec: make([]float64, 2048)})
	next := Encode(&Message{Type: TypeUpload, Round: 7})
	r := bytes.NewReader(append(append([]byte(nil), big...), next...))
	if _, err := DecodeBounded(r, HelloMaxBodyLen); !errors.Is(err, ErrOversizeFrame) {
		t.Fatalf("oversize frame: got %v, want ErrOversizeFrame", err)
	}
	m, err := DecodeBounded(r, HelloMaxBodyLen)
	if err != nil {
		t.Fatalf("stream misaligned after oversize rejection: %v", err)
	}
	if m.Type != TypeUpload || m.Round != 7 {
		t.Fatalf("wrong frame after rejection: %+v", m)
	}
}

// TestConnPrefilterHello drives the prefilter through a real Conn: the
// peeked verdict must not consume bytes (an admitted hello still
// arrives intact via Recv) and junk must be rejected pre-Recv.
func TestConnPrefilterHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accept := func() *Conn {
		raw, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		c := NewConn(raw)
		c.Timeout = 2 * time.Second
		return c
	}

	good, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	srv := accept()
	defer srv.Close()
	want := &Message{Type: TypeHello, Sender: 3, Flag: 3, Text: HelloCodecV2, Vec: []float64{1, 2}}
	if err := good.Send(want); err != nil {
		t.Fatal(err)
	}
	srv.SetMaxBodyLen(HelloMaxBodyLen)
	if err := srv.PrefilterHello(HelloMaxBodyLen); err != nil {
		t.Fatalf("valid hello prefiltered: %v", err)
	}
	m, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Flag != want.Flag || m.Text != want.Text || len(m.Vec) != 2 {
		t.Fatalf("hello damaged by prefilter peek: %+v", m)
	}

	junkRaw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer junkRaw.Close()
	srv2 := accept()
	defer srv2.Close()
	if _, err := junkRaw.Write([]byte("SSH-2.0-OpenSSH_9.6\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := srv2.PrefilterHello(HelloMaxBodyLen); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("junk prefilter: got %v, want ErrBadMagic", err)
	}
}

// BenchmarkHelloPrefilter times the prefilter's three verdicts on the
// pre-auth accept path: a valid hello, a junk preamble and a forged
// max-length claim.
func BenchmarkHelloPrefilter(b *testing.B) {
	forged := helloFrame(1, "")
	binary.LittleEndian.PutUint32(forged[20:], uint32(MaxVecLen))
	for _, tc := range []struct {
		name  string
		data  []byte
		admit bool
	}{
		{"accept", helloFrame(0, HelloCodecV2), true},
		{"reject_junk", []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), false},
		{"reject_forged_claim", forged, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := HelloPrefilter(tc.data, HelloMaxBodyLen); (err == nil) != tc.admit {
					b.Fatalf("verdict %v, want admit=%v", err, tc.admit)
				}
			}
		})
	}
}

// BenchmarkDecodeOversizeReject times DecodeBounded rejecting a
// well-formed frame over the hello cap: the body is discarded in chunks
// and CRC-checked, never allocated at its claimed size.
func BenchmarkDecodeOversizeReject(b *testing.B) {
	frame := helloFrame(8192, "")
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, err := DecodeBounded(r, HelloMaxBodyLen); !errors.Is(err, ErrTooLarge) {
			b.Fatalf("got %v, want ErrTooLarge", err)
		}
	}
}
