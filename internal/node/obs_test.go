package node

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/core"
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
	_ = sendHello(badID, 99, "", vec)
	_ = badID.Close()

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
		go slowClient(ps.Addr(), id, vec, errCh)
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

// exported parses reg's Prometheus export into sample values by full
// name, and each family's "type labels" signature: the sorted label
// keys of its samples (histogram "le" buckets aside), or "-" for none.
func exported(t *testing.T, reg *obs.Registry) (values map[string]float64, families map[string]string) {
	t.Helper()
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	values, families = map[string]float64{}, map[string]string{}
	kinds := map[string]string{}
	labelKey := regexp.MustCompile(`([a-z_]+)="`)
	for _, line := range strings.Split(strings.TrimSpace(text.String()), "\n") {
		if f := strings.Fields(line); f[0] == "#" {
			kinds[f[2]] = f[3]
			continue
		}
		name, v, _ := strings.Cut(line, " ")
		val, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		values[name] = val
		fam, labels, _ := strings.Cut(name, "{")
		var keys []string
		for _, m := range labelKey.FindAllStringSubmatch(labels, -1) {
			if m[1] != "le" {
				keys = append(keys, m[1])
			}
		}
		slices.Sort(keys)
		sig := "-"
		if len(keys) > 0 {
			sig = strings.Join(keys, ",")
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(fam, suffix); kinds[base] == "histogram" {
				fam = base
			}
		}
		families[fam] = sig
	}
	for fam, sig := range families {
		families[fam] = kinds[fam] + " " + sig
	}
	return values, families
}

// traceSums totals every field of the named trace events per node, and
// counts the events under "events".
func traceSums(tr *obs.Trace, name string) map[string]map[string]float64 {
	sums := map[string]map[string]float64{}
	for _, ev := range tr.Events() {
		if ev.Name != name {
			continue
		}
		if sums[ev.Node] == nil {
			sums[ev.Node] = map[string]float64{}
		}
		sums[ev.Node]["events"]++
		for k, v := range ev.Fields {
			sums[ev.Node][k] += v
		}
	}
	return sums
}

// TestObsReconcile: a run's three outputs — the round trace, PSStats
// and the exported counters — count the same events, so their totals
// must agree exactly, per node. One seeded tolerant federation with
// upload drops and corruption runs under the sync barrier and under a
// narrow async window (stale, dropped and deferred uploads, expiries);
// the engine runs the same spec in both modes.
func TestObsReconcile(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := map[bool]string{false: "sync", true: "async"}[async]
		t.Run(name, func(t *testing.T) {
			o := chaosOpts{
				k: 4, p: 2, rounds: 5, seed: 101,
				filter:        aggregate.TrimmedMean{Beta: 0.2},
				psTolerant:    true,
				minModels:     1,
				psTimeout:     time.Second,
				clientTimeout: 8 * time.Second,
				clientFaults:  transport.FaultConfig{Seed: 7, Drop: 0.1, Corrupt: 0.1},
				reg:           obs.NewRegistry(),
				traceSink:     obs.NewTrace(0),
			}
			if async {
				o.async, o.window, o.staleness, o.latencyScale = true, 200*time.Millisecond, 1, 800*time.Millisecond
			}
			_, psStats, _ := runChaos(t, o)
			values, _ := exported(t, o.reg)
			metric := func(name string) float64 {
				t.Helper()
				v, ok := values[name]
				if !ok {
					t.Fatalf("registry exports no %s", name)
				}
				return v
			}

			var moved float64
			psSums := traceSums(o.traceSink, "ps_round")
			for i, st := range psStats {
				sum := psSums[fmt.Sprintf("ps%d", i)]
				ps := func(name string) float64 { return metric(fmt.Sprintf(`fedms_ps_%s_total{ps="%d"}`, name, i)) }
				window := func(result string) float64 {
					return metric(fmt.Sprintf(`fedms_ps_window_uploads_total{ps="%d",result="%s"}`, i, result))
				}
				for _, c := range []struct {
					field  string
					stat   int
					metric float64
				}{
					{"events", st.RoundsServed, ps("rounds_served")},
					{"uploads", st.UploadsReceived, ps("uploads_received")},
					{"missed", st.UploadsMissed, ps("uploads_missed")},
					{"lost", st.ClientsLost, ps("clients_lost")},
					{"bytes_in", st.BytesIn, ps("bytes_in")},
					{"bytes_out", st.BytesOut, ps("bytes_out")},
					{"stale_uploads", st.UploadsStale, window("stale")},
					{"dropped_uploads", st.UploadsDropped, window("dropped")},
					{"deferred_uploads", st.UploadsDeferred, window("deferred")},
					{"window_expired", st.WindowExpired, ps("window_expired")},
				} {
					if sum[c.field] != float64(c.stat) || c.metric != float64(c.stat) {
						t.Errorf("ps%d %s: trace sum %v, PSStats %d, counter %v", i, c.field, sum[c.field], c.stat, c.metric)
					}
				}
				if got := ps("sends_failed"); sum["send_failed"] != got {
					t.Errorf("ps%d send_failed: trace sum %v, counter %v", i, sum["send_failed"], got)
				}
				moved += sum["missed"] + sum["stale_uploads"] + sum["dropped_uploads"]
			}
			if moved == 0 {
				t.Fatal("no upload was missed, stale or dropped; the faults reconciled nothing")
			}

			for node, sum := range traceSums(o.traceSink, "client_round") {
				client := func(name string) float64 {
					return metric(fmt.Sprintf(`fedms_client_%s_total{client="%s"}`, name, strings.TrimPrefix(node, "c")))
				}
				for field, got := range map[string]float64{
					"events":          client("rounds"),
					"models_received": client("models_received"),
					"degraded":        client("degraded_rounds"),
					"upload_bytes":    client("upload_bytes"),
					"download_bytes":  client("download_bytes"),
					"stale_uploads":   client("stale_uploads"),
					"dropped_uploads": client("uploads_dropped"),
				} {
					if sum[field] != got {
						t.Errorf("%s %s: trace sum %v, counter %v", node, field, sum[field], got)
					}
				}
			}

			cfg := testSpec(o.k, o.p, o.rounds, o.filter, o.seed)
			cfg.Async, cfg.Window, cfg.Staleness = o.async, o.window, o.staleness
			cfg.Obs, cfg.TraceSink = obs.NewRegistry(), obs.NewTrace(0)
			runEngineCfg(t, makeLearners(t, o.k, o.seed), cfg)
			values, _ = exported(t, cfg.Obs)
			sum := traceSums(cfg.TraceSink, "engine_round")["engine"]
			for field, got := range map[string]float64{
				"events":          metric("fedms_engine_rounds_total"),
				"upload_bytes":    metric(`fedms_engine_agg_decode_bytes_total{rule="mean"}`),
				"fresh_uploads":   metric(`fedms_engine_window_uploads_total{result="fresh"}`),
				"stale_uploads":   metric(`fedms_engine_window_uploads_total{result="stale"}`),
				"dropped_uploads": metric(`fedms_engine_window_uploads_total{result="dropped"}`),
			} {
				if sum[field] != got {
					t.Errorf("engine %s: trace sum %v, counter %v", field, sum[field], got)
				}
			}
		})
	}
}

// TestHandshakePoolGaugeDrains: the handshake-pool gauge counts the
// slots in use, so once Serve has returned and the last handshake has
// released its slot it must read 0 — however the releases of a
// concurrent junk flood interleaved.
func TestHandshakePoolGaugeDrains(t *testing.T) {
	const k, workers, perWorker = 2, 8, 16
	reg := obs.NewRegistry()
	ps, err := NewPS(PSConfig{
		ID: 0, ListenAddr: "127.0.0.1:0", Clients: k, Rounds: 1,
		Tolerant: true, Timeout: 5 * time.Second, HelloDeadline: time.Second, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- ps.Serve() }()

	var flood sync.WaitGroup
	for w := 0; w < workers; w++ {
		flood.Add(1)
		go func() {
			defer flood.Done()
			for i := 0; i < perWorker; i++ {
				raw, err := net.Dial("tcp", ps.Addr())
				if err != nil {
					return
				}
				_, _ = raw.Write([]byte("junk"))
				_ = raw.Close()
			}
		}()
	}
	flood.Wait()
	errCh := make(chan error, k)
	for id := 0; id < k; id++ {
		go slowClient(ps.Addr(), id, []float64{1, 2, 3}, errCh)
	}
	for i := 0; i < k; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if ps.Stats().BadAccepts == 0 {
		t.Fatal("no junk connection reached a handshake slot")
	}
	gauge := reg.Gauge(`fedms_ps_handshake_pool_depth{ps="0"}`)
	for deadline := time.Now().Add(ps.cfg.HelloDeadline); gauge.Value() != 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if v := gauge.Value(); v != 0 {
		t.Fatalf("handshake pool gauge reads %d with every handshake drained", v)
	}
}

// catalogueRow is one row of README's metric catalogue table: a
// backquoted family, its type and its backquoted label keys ("—" for
// none).
var catalogueRow = regexp.MustCompile("^\\| `(fedms_[a-z_]+)` \\| (counter|gauge|histogram) \\| ([^|]+) \\|")

// readmeCatalogue returns README's metric catalogue as family → "type
// labels", the signature exported reports.
func readmeCatalogue(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(data), "\n### Metric catalogue\n")
	if !found {
		t.Fatal("README.md has no \"Metric catalogue\" section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	rows := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		m := catalogueRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		labels := "-"
		if cell := strings.TrimSpace(m[3]); cell != "—" {
			keys := strings.Split(strings.NewReplacer("`", "", " ", "").Replace(cell), ",")
			slices.Sort(keys)
			labels = strings.Join(keys, ",")
		}
		rows[m[1]] = m[2] + " " + labels
	}
	return rows
}

// TestMetricCatalogue holds README's metric catalogue and the code to
// each other, both ways: every family a PS, a client, the transport and
// the engine register on one registry has a row with its type and
// labels, and every row names a family something registers.
func TestMetricCatalogue(t *testing.T) {
	reg := obs.NewRegistry()
	newPSMetrics(reg, 0, "mean")
	newClientMetrics(reg, 0, "trimmed_mean")
	transport.NewMetrics(reg, "ps0")
	cfg := testSpec(2, 2, 1, aggregate.TrimmedMean{Beta: 0.2}, 1)
	cfg.Obs = reg
	if _, err := core.NewEngine(cfg, makeLearners(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
	_, registered := exported(t, reg)
	documented := readmeCatalogue(t)
	for _, fam := range sortedKeys(registered) {
		if got, ok := documented[fam]; !ok {
			t.Errorf("%s (%s) is registered but has no README catalogue row", fam, registered[fam])
		} else if got != registered[fam] {
			t.Errorf("%s: README says %q, registry has %q", fam, got, registered[fam])
		}
	}
	for _, fam := range sortedKeys(documented) {
		if _, ok := registered[fam]; !ok {
			t.Errorf("README catalogue row %s names no registered family", fam)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
