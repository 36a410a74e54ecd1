package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := &Message{
		Type:   TypeUpload,
		Round:  7,
		Sender: 3,
		Flag:   1,
		Text:   "hello",
		Vec:    []float64{1.5, -2.25, math.Pi, 0},
	}
	got, err := Decode(bytes.NewReader(Encode(m)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.Round != m.Round || got.Sender != m.Sender ||
		got.Flag != m.Flag || got.Text != m.Text {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range m.Vec {
		if got.Vec[i] != m.Vec[i] {
			t.Fatalf("vec[%d] = %v, want %v", i, got.Vec[i], m.Vec[i])
		}
	}
}

// TestAppendEncodePreservesPrefix: AppendEncode must append after any
// existing bytes (leaving them intact) and produce exactly the frame
// Encode would.
func TestAppendEncodePreservesPrefix(t *testing.T) {
	m := &Message{Type: TypeGlobalModel, Round: 3, Sender: 1, Text: "x", Vec: []float64{1, 2, 3}}
	prefix := []byte("prefix")
	buf := AppendEncode(append([]byte(nil), prefix...), m)
	if !bytes.HasPrefix(buf, prefix) {
		t.Fatalf("AppendEncode clobbered the prefix: %q", buf[:len(prefix)])
	}
	if !bytes.Equal(buf[len(prefix):], Encode(m)) {
		t.Fatal("appended frame differs from Encode output")
	}
	got, err := Decode(bytes.NewReader(buf[len(prefix):]))
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != m.Text || len(got.Vec) != len(m.Vec) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestAppendEncodeReusesCapacity: encoding into a buffer that already
// has room must not reallocate — the property the Send buffer pool
// relies on to make steady-state sends allocation-free.
func TestAppendEncodeReusesCapacity(t *testing.T) {
	m := &Message{Type: TypeUpload, Round: 1, Vec: make([]float64, 512)}
	buf := AppendEncode(nil, m)
	reused := AppendEncode(buf[:0], m)
	if &reused[0] != &buf[0] {
		t.Fatal("AppendEncode reallocated despite sufficient capacity")
	}
	if !bytes.Equal(reused, buf) {
		t.Fatal("reused buffer encoded a different frame")
	}
}

// TestConnSendSteadyStateAllocs: after warm-up, Send must reuse pooled
// encode buffers — the per-round model exchange must not allocate a
// fresh headerLen+8d frame per link.
func TestConnSendSteadyStateAllocs(t *testing.T) {
	c := NewConn(discardNetConn{})
	m := &Message{Type: TypeGlobalModel, Round: 2, Vec: make([]float64, 4096)}
	avg := testing.AllocsPerRun(50, func() {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	})
	// Allow a fraction for pool refills under GC, but steady state must
	// be far below one frame allocation per send.
	if avg > 1 {
		t.Fatalf("Send allocates %v objects per frame in steady state", avg)
	}
}

// discardNetConn is a net.Conn that swallows writes.
type discardNetConn struct{ net.Conn }

func (discardNetConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardNetConn) SetWriteDeadline(time.Time) error { return nil }
func (discardNetConn) Close() error                     { return nil }

// writerNetConn is a net.Conn whose writes land in w.
type writerNetConn struct {
	net.Conn
	w io.Writer
}

func (c writerNetConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// readerNetConn is a net.Conn whose reads come from r.
type readerNetConn struct {
	net.Conn
	r io.Reader
}

func (c readerNetConn) Read(p []byte) (int, error)    { return c.r.Read(p) }
func (readerNetConn) SetReadDeadline(time.Time) error { return nil }

// loopReader serves frame over and over, so a Conn reading it receives
// the same frame forever.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

// recvLoop returns a Conn that receives m's frame forever.
func recvLoop(m *Message) *Conn {
	return NewConn(readerNetConn{r: &loopReader{frame: Encode(m)}})
}

// TestConnRecvSteadyStateAllocs is the Recv allocation gate: once a
// d = 1e5 dense model has been released, receiving the next one
// decodes into the released buffer, so a frame costs the Message
// header and nothing that scales with d. Run without -race; the
// Makefile pins a dedicated stage.
func TestConnRecvSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race; make verify runs this gate in a dedicated no-race stage")
	}
	const d = 100_000
	c := recvLoop(&Message{Type: TypeGlobalModel, Round: 2, Vec: make([]float64, d)})
	recv := func() {
		m, err := c.Recv()
		if err != nil || len(m.Vec) != d {
			t.Fatalf("Recv: %d elements, %v", len(m.Vec), err)
		}
		c.Release(m)
	}
	recv() // warm: the first frame allocates the buffer it releases
	if n := testing.AllocsPerRun(50, recv); n > 1 {
		t.Fatalf("steady-state Recv allocates %v objects per frame, want at most the Message", n)
	}
	var before, after runtime.MemStats
	const runs = 50
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		recv()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 1024 {
		t.Fatalf("steady-state Recv allocates %d B per frame; a d = %d model is %d B", perOp, d, 8*d)
	}
}

// TestConnRecvKeptMessageNotOverwritten: Recv reuses only what Release
// handed back, so a message kept without release keeps its model
// however many frames arrive after it — even one that was itself
// decoded into a released buffer — while released ones are decoded
// into again.
func TestConnRecvKeptMessageNotOverwritten(t *testing.T) {
	a, b := pipePair(t)
	const d, frames, keep = 1000, 6, 1
	go func() {
		for r := 0; r < frames; r++ {
			vec := make([]float64, d)
			for i := range vec {
				vec[i] = float64(r)
			}
			_ = a.Send(&Message{Type: TypeGlobalModel, Round: uint32(r), Vec: vec})
		}
	}()
	var kept *Message
	var released *float64 // the buffer the last released frame used
	for r := 0; r < frames; r++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Vec[0] != float64(r) || m.Vec[d-1] != float64(r) {
			t.Fatalf("frame %d decoded as %v … %v", r, m.Vec[0], m.Vec[d-1])
		}
		switch {
		case r == keep+1:
			// The one released buffer went to the kept frame.
			if &m.Vec[0] == &kept.Vec[0] {
				t.Fatalf("frame %d was decoded into the kept message's buffer", r)
			}
		case r > 0 && &m.Vec[0] != released:
			t.Fatalf("frame %d was not decoded into the buffer released before it", r)
		}
		if r == keep {
			kept = m
			continue
		}
		released = &m.Vec[0]
		b.Release(m)
		if m.Vec != nil {
			t.Fatal("Release left the message's Vec set")
		}
	}
	for i, v := range kept.Vec {
		if v != keep {
			t.Fatalf("kept model changed at %d to %v after later Recvs", i, v)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	m := &Message{Type: TypeGlobalModel, Round: 2, Vec: make([]float64, 100_000)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}

func BenchmarkConnSend(b *testing.B) {
	c := NewConn(discardNetConn{})
	m := &Message{Type: TypeGlobalModel, Round: 2, Vec: make([]float64, 100_000)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConnRecv(b *testing.B) {
	c := recvLoop(&Message{Type: TypeGlobalModel, Round: 2, Vec: make([]float64, 100_000)})
	recv := func() {
		m, err := c.Recv()
		if err != nil {
			b.Fatal(err)
		}
		c.Release(m)
	}
	recv() // the first frame allocates the buffer the rest reuse
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recv()
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	err := quick.Check(func(round, sender, flag uint32, text string, vec []float64) bool {
		if len(text) > 1000 || len(vec) > 1000 {
			return true
		}
		m := &Message{Type: TypeGlobalModel, Round: round, Sender: sender, Flag: flag, Text: text, Vec: vec}
		got, err := Decode(bytes.NewReader(Encode(m)))
		if err != nil {
			return false
		}
		if got.Round != round || got.Sender != sender || got.Flag != flag || got.Text != text {
			return false
		}
		if len(got.Vec) != len(vec) {
			return false
		}
		for i := range vec {
			// NaN-safe bit comparison.
			if math.Float64bits(got.Vec[i]) != math.Float64bits(vec[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodeEmptyMessage(t *testing.T) {
	m := &Message{Type: TypeUpload}
	got, err := Decode(bytes.NewReader(Encode(m)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeUpload || got.Text != "" || len(got.Vec) != 0 {
		t.Fatalf("empty message round trip: %+v", got)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	buf := Encode(&Message{Type: TypeUpload})
	buf[0] = 0x00
	if _, err := Decode(bytes.NewReader(buf)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	buf := Encode(&Message{Type: TypeUpload})
	buf[2] = 99
	if _, err := Decode(bytes.NewReader(buf)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeRejectsCorruptedPayload(t *testing.T) {
	buf := Encode(&Message{Type: TypeUpload, Vec: []float64{1, 2, 3}})
	buf[len(buf)-9] ^= 0xFF // flip a payload byte
	if _, err := Decode(bytes.NewReader(buf)); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestDecodeRejectsCorruptedHeader(t *testing.T) {
	buf := Encode(&Message{Type: TypeUpload, Round: 5, Vec: []float64{1}})
	buf[4] ^= 0xFF // corrupt round field
	if _, err := Decode(bytes.NewReader(buf)); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestDecodeRejectsOversizedFrames(t *testing.T) {
	buf := Encode(&Message{Type: TypeUpload})
	// Claim an absurd vector length.
	buf[20] = 0xFF
	buf[21] = 0xFF
	buf[22] = 0xFF
	buf[23] = 0xFF
	if _, err := Decode(bytes.NewReader(buf)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestDecodeShortRead: a stream that ends between frames is io.EOF; one
// that ends inside a frame — wherever the cut falls, header, text,
// model or checksum — is io.ErrUnexpectedEOF.
func TestDecodeShortRead(t *testing.T) {
	buf := Encode(&Message{Type: TypeUpload, Text: "t", Vec: []float64{1, 2}})
	if _, err := Decode(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := Decode(bytes.NewReader(buf[:cut])); err != io.ErrUnexpectedEOF {
			t.Fatalf("frame cut at byte %d of %d: err = %v, want io.ErrUnexpectedEOF", cut, len(buf), err)
		}
	}
}

func TestMultipleFramesBackToBack(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		buf.Write(Encode(&Message{Type: TypeUpload, Round: uint32(i), Vec: []float64{float64(i)}}))
	}
	r := bytes.NewReader(buf.Bytes())
	for i := 0; i < 5; i++ {
		m, err := Decode(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Round != uint32(i) || m.Vec[0] != float64(i) {
			t.Fatalf("frame %d corrupted: %+v", i, m)
		}
	}
	if _, err := Decode(r); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		conn := NewConn(c)
		defer conn.Close()
		m, err := conn.Recv()
		if err != nil {
			done <- err
			return
		}
		m.Round++
		done <- conn.Send(m)
	}()

	conn, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&Message{Type: TypeUpload, Round: 1, Vec: []float64{42}}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Round != 2 || reply.Vec[0] != 42 {
		t.Fatalf("reply = %+v", reply)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConnRecvTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, _ := ln.Accept()
		if c != nil {
			defer c.Close()
			time.Sleep(500 * time.Millisecond)
		}
	}()
	conn, err := Dial(ln.Addr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Recv(); err == nil {
		t.Fatal("Recv on silent peer must time out")
	}
}

// TestRecvDeadlineOverrideHoldsForLaterRecv pins SetRecvDeadline's
// override: a Recv that starts after the override was set arms the
// override, not its own per-frame Timeout — a straggler cap set just
// before a reader reaches Recv is not lost — and a zero override
// restores the Timeout.
func TestRecvDeadlineOverrideHoldsForLaterRecv(t *testing.T) {
	a, b := pipePair(t)
	b.Timeout = 10 * time.Second
	if err := b.SetRecvDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var ne interface{ Timeout() bool }
	for i := 0; i < 2; i++ {
		start := time.Now()
		_, err := b.Recv()
		if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("recv %d: err = %v, want a timeout", i, err)
		}
		if el := time.Since(start); el >= b.Timeout/2 {
			t.Fatalf("recv %d waited %v: it re-armed the %v Timeout over the override", i, el, b.Timeout)
		}
	}

	if err := b.SetRecvDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		_ = a.Send(&Message{Type: TypeUpload, Round: 3})
	}()
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("recv after dropping the override: %v", err)
	}
	if m.Round != 3 {
		t.Fatalf("round = %d, want 3", m.Round)
	}
}

func TestTypeString(t *testing.T) {
	if TypeUpload.String() != "upload" || Type(200).String() != "Type(200)" {
		t.Fatalf("Type.String broken: %s %s", TypeUpload, Type(200))
	}
}
