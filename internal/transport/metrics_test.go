package transport

import (
	"net"
	"testing"
	"time"

	"fedms/internal/obs"
)

// connPair returns two instrumented ends of an in-memory connection.
func connPair(t *testing.T, reg *obs.Registry) (*Conn, *Conn, *Metrics, *Metrics) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	ma, mb := NewMetrics(reg, "a"), NewMetrics(reg, "b")
	ca.SetMetrics(ma)
	cb.SetMetrics(mb)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb, ma, mb
}

func TestConnMetricsCountFramesAndBytes(t *testing.T) {
	reg := obs.NewRegistry()
	ca, cb, ma, mb := connPair(t, reg)
	msg := &Message{Type: TypeUpload, Round: 3, Sender: 1, Flag: 1, Vec: []float64{1, 2, 3}}
	done := make(chan error, 1)
	go func() { done <- ca.Send(msg) }()
	got, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(got.wireLen())
	if ma.FramesSent.Value() != 1 || ma.BytesSent.Value() != wantBytes {
		t.Fatalf("sender counted %d frames / %d bytes, want 1 / %d",
			ma.FramesSent.Value(), ma.BytesSent.Value(), wantBytes)
	}
	if mb.FramesRecv.Value() != 1 || mb.BytesRecv.Value() != wantBytes {
		t.Fatalf("receiver counted %d frames / %d bytes, want 1 / %d",
			mb.FramesRecv.Value(), mb.BytesRecv.Value(), wantBytes)
	}
}

func TestConnMetricsAuthIncludesMAC(t *testing.T) {
	reg := obs.NewRegistry()
	ca, cb, ma, mb := connPair(t, reg)
	ca.SetKey([]byte("secret"))
	cb.SetKey([]byte("secret"))
	msg := &Message{Type: TypeHello, Flag: 7}
	done := make(chan error, 1)
	go func() { done <- ca.Send(msg) }()
	got, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	want := int64(got.wireLen() + MACSize)
	if ma.BytesSent.Value() != want || mb.BytesRecv.Value() != want {
		t.Fatalf("bytes sent/recv = %d/%d, want %d (frame+MAC)",
			ma.BytesSent.Value(), mb.BytesRecv.Value(), want)
	}
}

func TestConnMetricsBadFrameAndTimeout(t *testing.T) {
	reg := obs.NewRegistry()
	// A corrupt frame: valid header shape but mangled checksum.
	frame := Encode(&Message{Type: TypeUpload, Round: 1, Vec: []float64{1}})
	frame[len(frame)-1] ^= 0xFF
	a, b := net.Pipe()
	conn := NewConn(b)
	m := NewMetrics(reg, "x")
	conn.SetMetrics(m)
	go func() { a.Write(frame) }()
	if _, err := conn.Recv(); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	if m.BadFrames.Value() != 1 {
		t.Fatalf("bad frames = %d, want 1", m.BadFrames.Value())
	}
	// A read deadline in the past forces a timeout.
	conn.Timeout = 10 * time.Millisecond
	if _, err := conn.Recv(); err == nil {
		t.Fatal("expected timeout")
	}
	if m.RecvTimeouts.Value() != 1 {
		t.Fatalf("recv timeouts = %d, want 1", m.RecvTimeouts.Value())
	}
	conn.Close()
	a.Close()
}

func TestConnMetricsSendErrorAndTrim(t *testing.T) {
	reg := obs.NewRegistry()
	a, b := net.Pipe()
	conn := NewConn(a)
	m := NewMetrics(reg, "a")
	conn.SetMetrics(m)
	b.Close()
	if err := conn.Send(&Message{Type: TypeUpload}); err == nil {
		t.Fatal("send to closed pipe succeeded")
	}
	if m.SendErrors.Value() != 1 || m.FramesSent.Value() != 0 {
		t.Fatalf("send errors/frames = %d/%d, want 1/0", m.SendErrors.Value(), m.FramesSent.Value())
	}
	_ = conn.SetRecvDeadline(time.Now())
	if m.DeadlineTrims.Value() != 1 {
		t.Fatalf("deadline trims = %d, want 1", m.DeadlineTrims.Value())
	}
	conn.Close()
}

func TestConnNilMetricsIsNoOp(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	ca.SetMetrics(nil)
	done := make(chan error, 1)
	go func() { done <- ca.Send(&Message{Type: TypeHello}) }()
	if _, err := cb.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
