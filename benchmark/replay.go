package main

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/sched"
	"fedms/internal/spill"
	"fedms/internal/transport"
)

// timeIt returns the median seconds of f over at least three calls and
// about 30 ms of them: the replays run after the repetition, alone on
// one goroutine.
func timeIt(f func()) float64 {
	var ts []float64
	var total time.Duration
	for n := 0; n < 3 || (total < 30*time.Millisecond && n < 2000); n++ {
		start := time.Now()
		f()
		d := time.Since(start)
		total += d
		ts = append(ts, d.Seconds())
	}
	return median(ts)
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// member is one admitted upload of a server's capture-round aggregation.
type member struct {
	arrival
	weight float64
}

// membersOf reconstructs server i's member set for the capture round in
// the order the server aggregates: (client, origin) ascending.
func membersOf(w workload, seed uint64, arr []arrival, i int) []member {
	var ms []member
	for _, a := range arr {
		if !a.admitted {
			continue
		}
		if !w.FullUpload && core.SparseUploadChoice(seed, a.origin, a.client, w.P) != i {
			continue
		}
		ms = append(ms, member{arrival: a, weight: sched.Weight(a.stale)})
	}
	sort.Slice(ms, func(x, y int) bool {
		if ms[x].client != ms[y].client {
			return ms[x].client < ms[y].client
		}
		return ms[x].origin < ms[y].origin
	})
	return ms
}

// layerMetrics turns a traced loopback repetition into the per-layer
// numbers: wrapper sums and registry reads taken in situ, then
// single-goroutine replays of the captured round through each layer's
// public functions. It also checks that the replays reproduce what the
// run computed, bit for bit — otherwise they time something else.
func (f *federation) layerMetrics(res *repResult, outDir string) (map[string]float64, []check, error) {
	w, p, c := f.w, f.probe, f.probe.cap
	timed := float64(w.Rounds - p.warm)
	rounds := float64(w.Rounds)
	m := make(map[string]float64)

	// ---- in situ ----
	var spans [][]span
	for _, l := range f.learners {
		m["nn.train_s"] += float64(l.trainNS) / 1e9 / timed
		m["nn.setparams_s"] += float64(l.setNS) / 1e9 / timed
		m["node.exchange_s"] += float64(l.exchNS) / 1e9 / timed
		spans = append(spans, l.spans)
	}
	for _, pc := range f.codecs {
		m["compress.encode_bytes"] += float64(pc.encByte) / timed
	}
	res.Spans = buildTrace("round", nil, spans)
	m["node.round_s_p90"] = quantile(res.RoundS[p.warm:], 0.9)
	m["node.handshakes_per_s"] = float64(w.K*w.P) / res.HelloS

	var fused, fallback float64
	var sentFrames, sentBytes int64
	for i := 0; i < w.P; i++ {
		l := fmt.Sprintf(`{ps="%d"}`, i)
		m["node.ps_barrier_wait_s"] += f.reg.Histogram("fedms_ps_barrier_wait_seconds"+l, nil).Sum() / rounds
		fused += float64(f.reg.Counter("fedms_ps_agg_fused_total" + l).Value())
		fallback += float64(f.reg.Counter("fedms_ps_agg_fallback_total" + l).Value())
		s := f.sent(fmt.Sprintf("ps%d", i))
		sentFrames, sentBytes = sentFrames+s[0], sentBytes+s[1]
	}
	for k := 0; k < w.K; k++ {
		l := fmt.Sprintf(`{client="%d"}`, k)
		m["node.client_recv_wait_s"] += f.reg.Histogram("fedms_client_recv_wait_seconds"+l, nil).Sum() / rounds
		fused += float64(f.reg.Counter("fedms_client_filter_fused_total" + l).Value())
		fallback += float64(f.reg.Counter("fedms_client_filter_fallback_total" + l).Value())
		s := f.sent(fmt.Sprintf("c%d", k))
		sentFrames, sentBytes = sentFrames+s[0]-f.helloSent[k][0], sentBytes+s[1]-f.helloSent[k][1]
	}
	m["aggregate.fused_share"] = fused / (fused + fallback)
	m["transport.frames_per_round"] = float64(sentFrames) / rounds
	m["transport.bytes_per_round"] = float64(sentBytes) / rounds

	var received, stale, dropped, deferred, expired float64
	for _, ps := range f.servers {
		st := ps.Stats()
		received += float64(st.UploadsReceived)
		stale += float64(st.UploadsStale)
		dropped += float64(st.UploadsDropped)
		deferred += float64(st.UploadsDeferred)
		expired += float64(st.WindowExpired)
		m["spill.peak_bytes"] = max(m["spill.peak_bytes"], float64(st.SpillPeakBytes))
	}
	m["node.uploads_stale_per_round"] = stale / rounds
	m["node.uploads_deferred_per_round"] = deferred / rounds
	m["node.upload_admit_ratio"] = received / (received + dropped + deferred)
	m["node.window_expired"] = expired

	// ---- replay of the captured round ----
	arr := arrivals(w, f.seed)
	payload := func(a arrival) (compress.Payload, error) {
		if w.Codec == "" {
			return compress.DensePayload(c.params[a.client]), nil
		}
		e := c.uploads[a.origin][a.client]
		return compress.ParsePayload(e.enc, e.data)
	}
	dst := make([]float64, w.Dim)
	match := true
	var agg, byzAgg []float64
	var parseS, ruleS float64
	for i := 0; i < w.P; i++ {
		ms := membersOf(w, f.seed, arr[c.round], i)
		if len(ms) == 0 {
			continue // the server re-disseminates its previous aggregate
		}
		// Under full upload every server holds the same member set: time
		// it once and charge it P times.
		if i == 0 || !w.FullUpload {
			parseS, ruleS = 0, 0
			views := make([]compress.Payload, len(ms))
			weights := make([]float64, len(ms))
			for j, mb := range ms {
				var err error
				if views[j], err = payload(mb.arrival); err != nil {
					return nil, nil, fmt.Errorf("replay: captured upload of client %d: %w", mb.client, err)
				}
				weights[j] = mb.weight
				if w.Codec != "" {
					e := c.uploads[mb.origin][mb.client]
					parseS += timeIt(func() { _, _ = compress.ParsePayload(e.enc, e.data) })
				}
			}
			if w.Async {
				ruleS = timeIt(func() { agg, _ = aggregate.AggregateWeightedPayloads(f.rule, dst, views, weights) })
			} else {
				ruleS = timeIt(func() { agg, _ = aggregate.AggregatePayloadsInto(f.rule, dst, views) })
			}
		}
		m["compress.parse_s"] += parseS
		m["aggregate.server_rule_s"] += ruleS
		if i == w.Byz {
			byzAgg = append([]float64(nil), agg...)
		} else if !equalBits(agg, c.received[i]) {
			match = false
		}
	}
	if byzAgg != nil {
		var tampered []float64
		m["attack.apply_s"] = timeIt(func() {
			tampered = attack.Noise{}.Tamper(&attack.Context{
				Round: c.round, Server: w.Byz, Client: -1, TrueAgg: byzAgg,
				RNG: core.AttackRNG(f.seed, w.Byz, c.round, -1, false),
			})
		})
		match = match && equalBits(tampered, c.received[w.Byz])
	}
	models := make([]compress.Payload, w.P)
	for i := range models {
		models[i] = compress.DensePayload(c.received[i])
	}
	var filtered []float64
	m["aggregate.filter_s"] = float64(w.K) * timeIt(func() {
		filtered, _, _ = aggregate.AggregatePayloadsWithOracle(f.filter, models, nil)
	})
	checks := []check{checkf("replay_matches_run", match && equalBits(filtered, c.filtered),
		"round %d: replayed server rule, attack or filter output differs from what the run disseminated", c.round)}

	// Frames per timed round, from the same seeded schedule the run
	// followed: every client marks every server each round (the fresh
	// on-time models ride those markers), a stale model is a frame of
	// its own, and every server answers every client.
	fanout := 1
	if w.FullUpload {
		fanout = w.P
	}
	var modelFrames, staleFrames float64
	for r := p.warm; r < w.Rounds; r++ {
		for _, a := range arr[r] {
			if a.stale == 0 {
				modelFrames += float64(fanout) / timed
			} else {
				staleFrames += float64(fanout) / timed
			}
		}
	}
	skipFrames := float64(w.K*w.P) - modelFrames
	globalFrames := float64(w.K * w.P)

	upload := &transport.Message{Type: transport.TypeUpload, Round: uint32(c.round), Flag: 1, Vec: c.params[0]}
	if w.Codec != "" {
		e := c.uploads[c.round][0]
		upload.Vec, upload.Enc, upload.Payload = nil, e.enc, e.data
	}
	skip := &transport.Message{Type: transport.TypeUpload, Round: uint32(c.round)}
	global := &transport.Message{Type: transport.TypeGlobalModel, Round: uint32(c.round), Vec: c.received[0]}
	var buf []byte
	enc := func(msg *transport.Message) float64 {
		return timeIt(func() { buf = transport.AppendEncode(buf[:0], msg) })
	}
	m["transport.encode_s"] = (modelFrames+staleFrames)*enc(upload) + skipFrames*enc(skip) + globalFrames*enc(global)
	rt, err := newRoundTripper()
	if err != nil {
		return nil, nil, err
	}
	m["transport.roundtrip_s"] = (modelFrames+staleFrames)*rt.time(upload) + skipFrames*rt.time(skip) + globalFrames*rt.time(global)
	if err := rt.close(); err != nil {
		return nil, nil, err
	}

	if w.Async {
		// Each server classifies every upload frame it reads.
		perFrame := timeIt(func() {
			for o := 0; o < 1000; o++ {
				_ = sched.DecideAt(sched.Async, c.round, c.round-o%4, w.Staleness)
			}
		}) / 1000
		m["sched.decide_s"] = perFrame * (float64(w.K*w.P) + staleFrames)

		// A clean run never defers: delayed uploads wait in the clients'
		// backlogs, so the servers' spill buffers stay empty. What a
		// lagging server would pay is replayed: this round's stale uploads
		// through one SpillMem-bounded buffer, add then pop.
		var recs []spill.Record
		for _, a := range arr[c.round] {
			if a.stale > 0 && a.admitted {
				e := c.uploads[a.origin][a.client]
				recs = append(recs, spill.Record{Client: a.client, Origin: a.origin, Due: c.round, Enc: byte(e.enc), Data: e.data})
			}
		}
		var spillErr error
		m["spill.add_pop_s"] = timeIt(func() {
			b := spill.New(spill.Config{MemLimit: w.SpillMem, Dir: filepath.Join(outDir, "spill")})
			for _, rec := range recs {
				rec.Data = append([]byte(nil), rec.Data...) // the buffer owns it
				if err := b.Add(rec); err != nil {
					spillErr = err
				}
			}
			for range recs {
				if _, _, err := b.Pop(); err != nil {
					spillErr = err
				}
			}
			if err := b.Close(); err != nil {
				spillErr = err
			}
		})
		if spillErr != nil {
			return nil, nil, fmt.Errorf("replay: spill: %w", spillErr)
		}
	}

	if w.Codec != "" {
		// Every client encodes its model once a round. Client 0's stands
		// for all K: a fresh codec, one call to reach steady state (scratch
		// sized, residual live), then the captured model timed and, apart,
		// its heap allocations counted.
		codec, err := f.spec.NewCodec(core.ClientCodecSeed(f.seed, 0))
		if err != nil {
			return nil, nil, err
		}
		var ebuf []byte
		encode := func() { _, ebuf = codec.AppendEncode(ebuf[:0], c.params[0]) }
		encode()
		m["compress.encode_s"] = float64(w.K) * timeIt(encode)
		const n = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			encode()
		}
		runtime.ReadMemStats(&after)
		m["compress.encode_allocs"] = float64(after.Mallocs-before.Mallocs) / n * float64(w.K)
	}

	budget(m, res.CPUS/timed)
	return m, checks, nil
}

// budget closes the per-layer account against the CPU the traced
// repetition itself burned per round. Waits and node.exchange_s are
// left out (they contain the other layers); transport.roundtrip_s
// already contains transport.encode_s.
func budget(m map[string]float64, cpuPerRound float64) {
	attributed := 0.0
	for _, name := range []string{
		"nn.train_s", "nn.setparams_s", "compress.encode_s", "compress.parse_s",
		"transport.roundtrip_s", "aggregate.server_rule_s", "aggregate.filter_s",
		"attack.apply_s", "sched.decide_s",
	} {
		attributed += m[name]
	}
	m["budget.attributed_share"] = attributed / cpuPerRound
	m["budget.unattributed_s"] = cpuPerRound - attributed
}

// roundTripper times Conn.Send -> Conn.Recv of one frame over one
// loopback TCP pair; the far end reads on its own goroutine (a model
// frame outgrows the socket buffers) and acknowledges in process.
type roundTripper struct {
	ln         net.Listener
	tx, rx     *transport.Conn
	got        chan error
	finished   chan struct{}
	err        error // first send or receive failure
	readerGone bool  // the reader reported a failure and exited
}

func newRoundTripper() (*roundTripper, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rt := &roundTripper{ln: ln, got: make(chan error), finished: make(chan struct{})}
	if rt.tx, err = transport.Dial(ln.Addr().String(), ioTimeout); err != nil {
		ln.Close()
		return nil, err
	}
	raw, err := ln.Accept()
	if err != nil {
		rt.tx.Close()
		ln.Close()
		return nil, err
	}
	rt.rx = transport.NewConn(raw)
	go func() {
		defer close(rt.finished)
		for {
			_, err := rt.rx.Recv()
			rt.got <- err
			if err != nil {
				return
			}
		}
	}()
	return rt, nil
}

// time returns the median seconds from Send to the far end's Recv.
func (rt *roundTripper) time(msg *transport.Message) float64 {
	return timeIt(func() {
		if rt.err != nil {
			return
		}
		if rt.err = rt.tx.Send(msg); rt.err == nil {
			rt.err = <-rt.got
			rt.readerGone = rt.err != nil
		}
	})
}

// close ends the pair and waits for the reader goroutine — closing the
// sender fails its Recv, which it reports once before exiting — and
// returns the first failure any timing met.
func (rt *roundTripper) close() error {
	rt.tx.Close()
	if !rt.readerGone {
		<-rt.got
	}
	<-rt.finished
	rt.rx.Close()
	rt.ln.Close()
	if rt.err != nil {
		return fmt.Errorf("replay: loopback round trip: %w", rt.err)
	}
	return nil
}
