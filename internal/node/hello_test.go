package node

import (
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedms/internal/golden"
	"fedms/internal/transport"
)

// TestClientHelloGolden pins the bytes a client puts on the wire when it
// introduces itself to a PS: the tiny info frame (client id with the
// seed flag, connect token and enc:v2 advertisement), then the model
// seed frame, both under the shared key. The pinned bytes must still
// pass a PS handshake as that client with that seed.
func TestClientHelloGolden(t *testing.T) {
	key := []byte("federation-key")
	const id, seed = 3, 99
	w0 := []float64{1, -2.5, 3}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	wire := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			wire <- nil
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		wire <- b
	}()
	cfg := ClientConfig{
		ID: id, Seed: seed, Key: key, AcceptEncodedDownlink: true,
		Timeout: 5 * time.Second, DialAttempts: 1,
	}
	conn, err := dialPS(&cfg, 0, ln.Addr().String(), w0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	pinned := golden.Check(t, "testdata/client_hello.hex", <-wire)

	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: id + 1, Rounds: 1,
		Seed: seed, Key: key, RequireToken: true, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = ps.Close()
	client, server := net.Pipe()
	defer client.Close()
	go func() { _, _ = client.Write(pinned) }()
	r := ps.handshake(server)
	if r.err != nil {
		t.Fatalf("pinned hello rejected: %v", r.err)
	}
	if r.id != id || !r.v2ok || !reflect.DeepEqual(r.seed, w0) {
		t.Fatalf("pinned hello admitted as id %d v2 %v seed %v", r.id, r.v2ok, r.seed)
	}
}

// TestPSRejectsSingleFrameHello: a hello without the seed flag — the
// retired form that carried the model inline — is malformed: fatal to a
// strict PS, counted and absorbed by a tolerant one, which still admits
// the real client behind it.
func TestPSRejectsSingleFrameHello(t *testing.T) {
	for _, tolerant := range []bool{false, true} {
		ps, err := NewPS(PSConfig{
			ID: 0, ListenAddr: "127.0.0.1:0", Clients: 1, Rounds: 1,
			Tolerant: tolerant, Timeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- ps.Serve() }()
		conn, err := transport.Dial(ps.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.Send(&transport.Message{Type: transport.TypeHello, Flag: 0, Vec: []float64{1}})
		_ = conn.Close()
		if !tolerant {
			if err := <-serveErr; err == nil || !strings.Contains(err.Error(), "seed flag") {
				t.Fatalf("strict PS admitted a single-frame hello: %v", err)
			}
			continue
		}
		for deadline := time.Now().Add(5 * time.Second); ps.Stats().BadAccepts == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("tolerant PS never counted the single-frame hello")
			}
		}
		errCh := make(chan error, 1)
		slowClient(ps.Addr(), 0, []float64{1}, errCh)
		if err := <-errCh; err != nil {
			t.Fatalf("client: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Fatalf("Serve: %v", err)
		}
		if st := ps.Stats(); st.BadAccepts != 1 || st.RoundsServed != 1 {
			t.Fatalf("tolerant PS stats %+v, want one bad accept and the round served", st)
		}
	}
}
