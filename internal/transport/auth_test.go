package transport

import (
	"errors"
	"net"
	"testing"
	"time"
)

// pipePair returns two connected Conns over a real TCP socket.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	a, b := NewConn(client), NewConn(r.c)
	a.Timeout = 2 * time.Second
	b.Timeout = 2 * time.Second
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestAuthenticatedRoundTrip(t *testing.T) {
	a, b := pipePair(t)
	key := []byte("pool-secret")
	a.SetKey(key)
	b.SetKey(key)

	msg := &Message{Type: TypeUpload, Round: 5, Sender: 2, Flag: 1, Vec: []float64{1, 2, 3}}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 5 || got.Vec[2] != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestAuthenticatedMultipleFrames(t *testing.T) {
	a, b := pipePair(t)
	key := []byte("k")
	a.SetKey(key)
	b.SetKey(key)
	for i := 0; i < 5; i++ {
		if err := a.Send(&Message{Type: TypeUpload, Round: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Round != uint32(i) {
			t.Fatalf("frame %d out of order", i)
		}
	}
}

func TestKeyMismatchRejected(t *testing.T) {
	a, b := pipePair(t)
	a.SetKey([]byte("key-one"))
	b.SetKey([]byte("key-two"))
	if err := a.Send(&Message{Type: TypeUpload}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("err = %v, want ErrBadMAC", err)
	}
}

func TestUnauthenticatedSenderRejected(t *testing.T) {
	a, b := pipePair(t)
	b.SetKey([]byte("secret"))
	// a sends without a MAC; b expects frame+MAC and must fail (either
	// short read or bad MAC depending on framing).
	if err := a.Send(&Message{Type: TypeUpload}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if _, err := b.Recv(); err == nil {
		t.Fatal("unauthenticated frame must be rejected")
	}
}

func TestEmptyKeyDisablesAuth(t *testing.T) {
	a, b := pipePair(t)
	a.SetKey(nil)
	b.SetKey([]byte{})
	if err := a.Send(&Message{Type: TypeUpload, Round: 9}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Round != 9 {
		t.Fatalf("round = %d", m.Round)
	}
}

func TestSetKeyCopiesSecret(t *testing.T) {
	a, b := pipePair(t)
	key := []byte("mutate-me")
	a.SetKey(key)
	b.SetKey([]byte("mutate-me"))
	key[0] = 'X' // caller mutation must not affect the connection
	if err := a.Send(&Message{Type: TypeUpload}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatalf("SetKey must copy the key: %v", err)
	}
}
