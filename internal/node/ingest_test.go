package node

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"fedms/internal/transport"
)

// fakeClient speaks just enough of the protocol on conn for the accept
// tests: the two-frame hello carrying text, one round-0 upload, one
// global-model receive.
func fakeClient(conn *transport.Conn, id int, text string, vec []float64) error {
	defer conn.Close()
	if err := sendHello(conn, id, text, vec); err != nil {
		return err
	}
	if err := conn.Send(&transport.Message{
		Type: transport.TypeUpload, Round: 0, Sender: uint32(id), Flag: 1, Vec: vec,
	}); err != nil {
		return err
	}
	m, err := conn.Recv()
	if err == nil && m.Type != transport.TypeGlobalModel {
		err = fmt.Errorf("client %d got %s, want a global model", id, m.Type)
	}
	return err
}

// slowClient runs fakeClient against addr with generous deadlines, so
// the ingest tests measure the server's accept latency, not a client
// timeout.
func slowClient(addr string, id int, vec []float64, errCh chan<- error) {
	conn, err := transport.Dial(addr, 10*time.Second)
	if err != nil {
		errCh <- err
		return
	}
	conn.Timeout = 10 * time.Second
	errCh <- fakeClient(conn, id, "", vec)
}

// TestPSAcceptSilentConnNoHeadOfLine pins the accept-phase
// head-of-line fix: connected-but-silent sockets (slow-loris) must not
// delay honest clients behind them. The pre-fix accept loop called
// conn.Recv() inline, so each silent connection stalled every
// subsequent accept for the full cfg.Timeout — three of them cost
// 3×Timeout before the first honest hello was even read. With the
// concurrent accept stage the honest clients are admitted immediately
// and the round completes in ~hello-deadline regardless of how many
// silent sockets are parked on the listener.
func TestPSAcceptSilentConnNoHeadOfLine(t *testing.T) {
	const silent = 3
	vec := []float64{1, 2, 3}
	timeout := 2 * time.Second
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: 2, Rounds: 1,
		Tolerant: true, Timeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ps.Serve() }()

	start := time.Now()
	// Park silent connections on the listener first, so a serial accept
	// loop would have to burn its receive timeout on each of them before
	// reaching the honest hellos.
	silents := make([]net.Conn, 0, silent)
	defer func() {
		for _, c := range silents {
			_ = c.Close()
		}
	}()
	for i := 0; i < silent; i++ {
		c, err := net.Dial("tcp", ps.Addr())
		if err != nil {
			t.Fatal(err)
		}
		silents = append(silents, c)
	}
	// Give the kernel a beat to order the backlog, then the real clients.
	time.Sleep(50 * time.Millisecond)
	errCh := make(chan error, 2)
	for id := 0; id < 2; id++ {
		go slowClient(ps.Addr(), id, vec, errCh)
	}
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	elapsed := time.Since(start)
	// Serial accept: >= silent*Timeout = 6s before the honest hellos are
	// read. Concurrent accept: well under one Timeout.
	if limit := 2 * timeout; elapsed >= limit {
		t.Fatalf("accept phase took %v with %d silent connections parked; head-of-line stall (limit %v)", elapsed, silent, limit)
	}
	st := ps.Stats()
	if st.RoundsServed != 1 || st.UploadsReceived != 2 {
		t.Fatalf("round incomplete behind silent connections: %+v", st)
	}
}

// TestPSAcceptRotatingSourceJunkNeverFatal pins the maxBadAccepts
// removal: unlimited junk connections — the rotating-source flood a
// lifetime counter mistakes for one persistent abuser — must never turn
// a healthy tolerant PS fatal. The pre-fix code gave up after 32.
func TestPSAcceptRotatingSourceJunkNeverFatal(t *testing.T) {
	vec := []float64{4, 5, 6}
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: 2, Rounds: 1,
		Tolerant: true, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ps.Serve() }()

	// Twice the old lifetime budget, each from a fresh ephemeral port
	// (the rotating-source shape a per-source limiter must not punish).
	var junk atomic.Int64
	for i := 0; i < 64; i++ {
		raw, err := net.Dial("tcp", ps.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = raw.Write([]byte("junk junk junk"))
		_ = raw.Close()
		junk.Add(1)
	}

	errCh := make(chan error, 2)
	for id := 0; id < 2; id++ {
		go slowClient(ps.Addr(), id, vec, errCh)
	}
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve turned fatal under %d junk connections: %v", junk.Load(), err)
	}
	st := ps.Stats()
	if st.RoundsServed != 1 || st.UploadsReceived != 2 {
		t.Fatalf("round incomplete after junk flood: %+v", st)
	}
	if st.BadAccepts < 1 {
		t.Fatalf("junk flood left no BadAccepts trace: %+v", st)
	}
}

// TestSourceLimiterBuckets drives the token-bucket math with an
// injected clock: rotating sources are never throttled (each gets its
// own fresh bucket), a single source is throttled after its burst and
// recovers as tokens refill.
func TestSourceLimiterBuckets(t *testing.T) {
	l := newSourceLimiter(1, 2) // 1 conn/sec, burst 2
	now := time.Unix(1000, 0)

	for i := 0; i < 100; i++ {
		if !l.allow(fmt.Sprintf("10.0.%d.%d", i/256, i%256), now) {
			t.Fatalf("rotating source %d throttled", i)
		}
	}
	if !l.allow("attacker", now) || !l.allow("attacker", now) {
		t.Fatal("burst not honoured")
	}
	if l.allow("attacker", now) {
		t.Fatal("third instant connection allowed past burst 2")
	}
	if l.allow("attacker", now.Add(500*time.Millisecond)) {
		t.Fatal("half a token is not a token")
	}
	if !l.allow("attacker", now.Add(1500*time.Millisecond)) {
		t.Fatal("refilled token not granted")
	}
	// The throttled source never starves others, even at the same instant.
	if !l.allow("bystander", now) {
		t.Fatal("throttling one source starved another")
	}
}

func TestSourceLimiterPruneBound(t *testing.T) {
	l := newSourceLimiter(1000, 1)
	now := time.Unix(2000, 0)
	for i := 0; i < 3*sourceLimiterMaxBuckets; i++ {
		// Advance time so earlier buckets refill and become evictable.
		l.allow(fmt.Sprintf("s%d", i), now.Add(time.Duration(i)*time.Millisecond))
	}
	if n := len(l.buckets); n > sourceLimiterMaxBuckets+1 {
		t.Fatalf("bucket table grew unbounded: %d entries", n)
	}
}

// TestPSAcceptRateLimitPerSource is the integration half: a single
// abusive source hammering the listener gets throttled (its conns shed
// at accept, counted in RateLimited, never fatal) while honest clients
// dialing from different local addresses are admitted and the round
// completes. Linux loopback accepts any 127.0.0.0/8 local address.
func TestPSAcceptRateLimitPerSource(t *testing.T) {
	vec := []float64{1, 2, 3}
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: 2, Rounds: 1,
		Tolerant: true, Timeout: 5 * time.Second,
		AcceptRate: 1, AcceptBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ps.Serve() }()

	// 8 instant junk connections from one source (127.0.0.50): burst 2
	// pass to the handshake stage, the rest are shed.
	abuser := &net.Dialer{LocalAddr: &net.TCPAddr{IP: net.ParseIP("127.0.0.50")}}
	for i := 0; i < 8; i++ {
		raw, err := abuser.Dial("tcp", ps.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = raw.Write([]byte("junk"))
		_ = raw.Close()
	}

	errCh := make(chan error, 2)
	for id := 0; id < 2; id++ {
		id := id
		go func() {
			d := &net.Dialer{LocalAddr: &net.TCPAddr{IP: net.ParseIP(fmt.Sprintf("127.0.0.%d", 2+id))}}
			raw, err := d.Dial("tcp", ps.Addr())
			if err != nil {
				errCh <- err
				return
			}
			conn := transport.NewConn(raw)
			conn.Timeout = 5 * time.Second
			errCh <- fakeClient(conn, id, "", vec)
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	st := ps.Stats()
	if st.RoundsServed != 1 || st.UploadsReceived != 2 {
		t.Fatalf("round incomplete under abusive source: %+v", st)
	}
	if st.RateLimited < 4 {
		t.Fatalf("RateLimited = %d, want >= 4 of 8 instant junk conns shed", st.RateLimited)
	}
}

// TestPSRequireTokenAdmission: with RequireToken set, a hello carrying
// the right connect token is admitted, one with a forged token is
// rejected (counted in TokenRejects), and the real client path — which
// mints tokens from the shared key — completes a round end to end.
func TestPSRequireTokenAdmission(t *testing.T) {
	key := []byte("federation-key")
	const seed = 99
	vec := []float64{1, 2, 3}
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: 2, Rounds: 1,
		Tolerant: true, Timeout: 5 * time.Second,
		Key: key, Seed: seed, RequireToken: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ps.Serve() }()

	// Tokenless and forged-token hellos must bounce.
	for _, text := range []string{"", transport.HelloTokenPrefix + "0123456789abcdef0123456789abcdef"} {
		conn, err := transport.Dial(ps.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.Timeout = 5 * time.Second
		conn.SetKey(key)
		_ = sendHello(conn, 0, text, vec)
		_ = conn.Close()
	}

	errCh := make(chan error, 2)
	for id := 0; id < 2; id++ {
		id := id
		go func() {
			conn, err := transport.Dial(ps.Addr(), 5*time.Second)
			if err != nil {
				errCh <- err
				return
			}
			conn.Timeout = 5 * time.Second
			conn.SetKey(key)
			info := transport.HelloInfo{Token: transport.ConnectToken(key, seed, id)}
			errCh <- fakeClient(conn, id, info.Text(), vec)
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	st := ps.Stats()
	if st.TokenRejects != 2 {
		t.Fatalf("TokenRejects = %d, want 2", st.TokenRejects)
	}
	if st.RoundsServed != 1 || st.UploadsReceived != 2 {
		t.Fatalf("round incomplete: %+v", st)
	}
}
