package node

import (
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/obs"
	"fedms/internal/transport"
)

// TestPSDisseminationAccountingFailedSends pins the dissemination
// accounting fix: BytesOut/FloatsOut must count only downlinks that
// actually left the wire. Client 1 sends its upload and slams the
// connection before reading the global model, so the PS's send to it
// fails; the pre-fix code counted the round's totals before the sends
// completed and would report both clients' downlinks.
func TestPSDisseminationAccountingFailedSends(t *testing.T) {
	const dim = 4
	vec := []float64{1, 2, 3, 4}

	p, conns, cli := pipePS(t, PSConfig{
		ID: 0, Clients: 2, Rounds: 1,
		Tolerant: true,
		Timeout:  2 * time.Second,
	}, nil)
	c0, c1 := cli[0], cli[1]
	c0.Timeout, c1.Timeout = 2*time.Second, 2*time.Second
	upload := func(sender int) *transport.Message {
		return &transport.Message{
			Type: transport.TypeUpload, Round: 0,
			Sender: uint32(sender), Flag: 1,
			Vec: append([]float64(nil), vec...),
		}
	}

	type downlink struct {
		bytes, floats int
		err           error
	}
	got := make(chan downlink, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client 0: full round
		defer wg.Done()
		if err := c0.Send(upload(0)); err != nil {
			got <- downlink{err: err}
			return
		}
		m, err := c0.Recv()
		if err != nil {
			got <- downlink{err: err}
			return
		}
		got <- downlink{bytes: m.ModelWireBytes(), floats: m.ModelWireFloats()}
	}()
	go func() { // client 1: upload, then vanish before the downlink
		defer wg.Done()
		_ = c1.Send(upload(1))
		_ = c1.Close()
	}()

	if err := p.serveRound(0, conns); err != nil {
		t.Fatalf("serveRound: %v", err)
	}
	wg.Wait()
	d := <-got
	if d.err != nil {
		t.Fatalf("client 0 round: %v", d.err)
	}

	st := p.Stats()
	if st.UploadsReceived != 2 || st.BytesIn != 2*dim*8 || st.FloatsIn != 2*dim {
		t.Fatalf("upload accounting: got %+v", st)
	}
	// Only client 0's downlink landed: the totals must reconcile with
	// what that one surviving client measured on its end of the wire.
	if st.BytesOut != d.bytes {
		t.Fatalf("BytesOut = %d, surviving client downloaded %d", st.BytesOut, d.bytes)
	}
	if st.FloatsOut != d.floats {
		t.Fatalf("FloatsOut = %d, surviving client received %d floats", st.FloatsOut, d.floats)
	}
	if st.BytesOut != dim*8 || st.FloatsOut != dim {
		t.Fatalf("want exactly one dense downlink (%d bytes, %d floats), got BytesOut=%d FloatsOut=%d",
			dim*8, dim, st.BytesOut, st.FloatsOut)
	}
	if st.ClientsLost != 1 {
		t.Fatalf("ClientsLost = %d, want 1 (failed send)", st.ClientsLost)
	}
	if conns[1] != nil {
		t.Fatal("failed-send connection not removed from the round")
	}
}

// runHandmadeClient speaks just enough of the protocol for the accept
// tests: hello, one round-0 upload, one global-model receive.
func runHandmadeClient(t *testing.T, addr string, id int, vec []float64, errCh chan<- error) {
	t.Helper()
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		errCh <- err
		return
	}
	defer conn.Close()
	conn.Timeout = 5 * time.Second
	if err := conn.Send(&transport.Message{
		Type: transport.TypeHello, Sender: uint32(id), Flag: uint32(id), Vec: vec,
	}); err != nil {
		errCh <- err
		return
	}
	if err := conn.Send(&transport.Message{
		Type: transport.TypeUpload, Round: 0, Sender: uint32(id), Flag: 1, Vec: vec,
	}); err != nil {
		errCh <- err
		return
	}
	m, err := conn.Recv()
	if err != nil {
		errCh <- err
		return
	}
	if m.Type != transport.TypeGlobalModel {
		errCh <- io.ErrUnexpectedEOF
		return
	}
	errCh <- nil
}

// TestPSTolerantAcceptSurvivesGarbage pins the tolerant-accept fix: a
// tolerant PS must absorb malformed connections during its accept phase
// — raw garbage, a non-hello first frame, an out-of-range id — and
// still complete the round once the real clients arrive. The pre-fix
// code aborted Serve on the first one, tolerant or not.
func TestPSTolerantAcceptSurvivesGarbage(t *testing.T) {
	vec := []float64{1, 2, 3}
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: 2, Rounds: 1,
		Tolerant: true, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ps.Serve() }()

	// One of each malformed flavour, sequentially so the PS sees them
	// before the real clients.
	raw, err := net.Dial("tcp", ps.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = raw.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	_ = raw.Close()

	wrongType, err := transport.Dial(ps.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = wrongType.Send(&transport.Message{Type: transport.TypeUpload, Flag: 1, Vec: vec})
	_ = wrongType.Close()

	badID, err := transport.Dial(ps.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = badID.Send(&transport.Message{Type: transport.TypeHello, Flag: 99, Vec: vec})
	_ = badID.Close()

	errCh := make(chan error, 2)
	for id := 0; id < 2; id++ {
		go runHandmadeClient(t, ps.Addr(), id, vec, errCh)
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
	if st.BadAccepts != 3 {
		t.Fatalf("BadAccepts = %d, want 3", st.BadAccepts)
	}
	if st.RoundsServed != 1 || st.UploadsReceived != 2 {
		t.Fatalf("round incomplete after garbage: %+v", st)
	}
}

// TestPSTolerantAcceptFloodSurvives: tolerance is unbounded — the old
// lifetime maxBadAccepts budget (32) turned a healthy PS fatal under a
// long junk flood, so a misdirected load generator could kill a
// federation before round 0. Now every junk connection is rejected by
// the zero-allocation prefilter (counted in both BadAccepts and
// PrefilterDrops) and the round completes once the real clients show.
func TestPSTolerantAcceptFloodSurvives(t *testing.T) {
	const flood = 48 // 1.5× the old lifetime budget
	vec := []float64{1, 2, 3}
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: 2, Rounds: 1,
		Tolerant: true, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ps.Serve() }()

	for i := 0; i < flood; i++ {
		raw, err := net.Dial("tcp", ps.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = raw.Write([]byte("junk"))
		_ = raw.Close()
	}
	errCh := make(chan error, 2)
	for id := 0; id < 2; id++ {
		go runHandmadeClient(t, ps.Addr(), id, vec, errCh)
	}
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve turned fatal under junk flood: %v", err)
	}
	st := ps.Stats()
	if st.RoundsServed != 1 || st.UploadsReceived != 2 {
		t.Fatalf("round incomplete after flood: %+v", st)
	}
	if st.BadAccepts < 1 || st.PrefilterDrops != st.BadAccepts {
		t.Fatalf("junk should be prefilter-rejected: BadAccepts=%d PrefilterDrops=%d", st.BadAccepts, st.PrefilterDrops)
	}
}

// TestPSStrictAcceptGarbageFatal: strict mode keeps the pre-fix
// contract — the paper's synchronous model — where any malformed
// connection aborts Serve immediately.
func TestPSStrictAcceptGarbageFatal(t *testing.T) {
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: 2, Rounds: 1,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ps.Serve() }()

	raw, err := net.Dial("tcp", ps.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = raw.Write([]byte("junk"))
	_ = raw.Close()

	if err := <-serveErr; err == nil {
		t.Fatal("strict Serve accepted a malformed connection")
	}
	if got := ps.Stats().BadAccepts; got != 0 {
		t.Fatalf("strict mode counted %d BadAccepts, want 0", got)
	}
}

// TestObsDeterminismChaos is the observability contract for the
// distributed runtime: a seeded chaos run with metrics, tracing and
// logging all enabled must produce bit-identical final models to the
// same run with observability off. The make verify gate runs this under
// the race detector.
func TestObsDeterminismChaos(t *testing.T) {
	// Same scenario as the chaos tier's "mixed" case: that exact fault
	// schedule is pinned rerun-stable under -race by
	// TestChaosUploadFaultScenarios, so any divergence here is the
	// observability layer's fault, not a marginal frame racing a
	// deadline.
	base := chaosOpts{
		k: 4, p: 2, rounds: 5, seed: 101,
		filter:        aggregate.TrimmedMean{Beta: 0.2},
		psTolerant:    true,
		psTimeout:     2 * time.Second,
		clientTimeout: 8 * time.Second,
		clientFaults:  transport.FaultConfig{Seed: 7, Drop: 0.1, Corrupt: 0.1, Duplicate: 0.1},
	}

	dark, _, _ := runChaos(t, base)

	lit := base
	lit.reg = obs.NewRegistry()
	lit.traceSink = obs.NewTrace(0)
	lit.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	observed, stats, _ := runChaos(t, lit)

	assertSameParams(t, dark, observed, "observability on vs off")

	// The instruments must actually have fired: every PS round is traced
	// and mirrored into the registry.
	rounds := 0
	for _, st := range stats {
		rounds += st.RoundsServed
	}
	psEvents := 0
	for _, ev := range lit.traceSink.Events() {
		if ev.Name == "ps_round" {
			psEvents++
		}
	}
	if psEvents != rounds {
		t.Fatalf("trace has %d ps_round events, PSs served %d rounds", psEvents, rounds)
	}
	var text strings.Builder
	if err := lit.reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fedms_ps_rounds_served_total", "fedms_client_rounds_total", "fedms_transport_frames_sent_total"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("registry export missing %s:\n%s", want, text.String())
		}
	}
}
