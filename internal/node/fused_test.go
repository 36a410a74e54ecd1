package node

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/compress"
	"fedms/internal/obs"
	"fedms/internal/transport"
)

// stripTimingFields removes the wall-clock fields from a trace event so
// two runs of the same seeded scenario can be compared field for field.
func stripTimingFields(evs []obs.Event) []obs.Event {
	out := make([]obs.Event, len(evs))
	for i, ev := range evs {
		fields := make(map[string]float64, len(ev.Fields))
		for k, v := range ev.Fields {
			if k == "barrier_ms" || k == "recv_wait_ms" {
				continue
			}
			fields[k] = v
		}
		ev.Fields = fields
		out[i] = ev
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		if out[i].Round != out[j].Round {
			return out[i].Round < out[j].Round
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func assertSameTraces(t *testing.T, a, b []obs.Event, context string) {
	t.Helper()
	a, b = stripTimingFields(a), stripTimingFields(b)
	if len(a) != len(b) {
		t.Fatalf("%s: %d events vs %d", context, len(a), len(b))
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Round != b[i].Round || a[i].Name != b[i].Name {
			t.Fatalf("%s: event %d is %s/%d/%s vs %s/%d/%s",
				context, i, a[i].Node, a[i].Round, a[i].Name, b[i].Node, b[i].Round, b[i].Name)
		}
		if len(a[i].Fields) != len(b[i].Fields) {
			t.Fatalf("%s: event %d field count %d vs %d", context, i, len(a[i].Fields), len(b[i].Fields))
		}
		for k, v := range a[i].Fields {
			if w, ok := b[i].Fields[k]; !ok || v != w {
				t.Fatalf("%s: event %d (%s/%d/%s) field %s: %v vs %v",
					context, i, a[i].Node, a[i].Round, a[i].Name, k, v, w)
			}
		}
	}
}

// TestChaosFusedOffParity is the fused-aggregation chaos regression:
// the same seeded chaos scenario — sparse codec uploads on a faulted
// uplink, encoded downlinks, tolerant PSs — run once on the fused
// payload path and once with every rule wrapped in NoFuse must produce
// bit-identical final models, identical server statistics and
// identical round traces (timing fields aside). The registries must
// also prove that each arm actually took the path it claims.
func TestChaosFusedOffParity(t *testing.T) {
	base := chaosOpts{
		k: 4, p: 2, rounds: 5, seed: 101,
		filter:        aggregate.TrimmedMean{Beta: 0.2},
		psTolerant:    true,
		psTimeout:     2 * time.Second,
		clientTimeout: 8 * time.Second,
		// The pinned-deterministic mixed schedule of the chaos tier.
		clientFaults: transport.FaultConfig{Seed: 7, Drop: 0.1, Corrupt: 0.1, Duplicate: 0.1},
		upCodec:      mustSpec(t, "topk:0.25"),
		downCodec:    mustSpec(t, "topk:0.5"),
	}

	fused := base
	fused.reg = obs.NewRegistry()
	fused.traceSink = obs.NewTrace(0)
	fusedParams, fusedStats, _ := runChaos(t, fused)

	off := base
	off.filter = aggregate.NoFuse{Rule: base.filter}
	off.serverRule = aggregate.NoFuse{Rule: aggregate.Mean{}}
	off.reg = obs.NewRegistry()
	off.traceSink = obs.NewTrace(0)
	offParams, offStats, _ := runChaos(t, off)

	assertSameParams(t, fusedParams, offParams, "fused on vs off")
	for i := range fusedStats {
		if fusedStats[i] != offStats[i] {
			t.Fatalf("PS %d stats diverge: fused %+v, off %+v", i, fusedStats[i], offStats[i])
		}
	}
	assertSameTraces(t, fused.traceSink.Events(), off.traceSink.Events(), "fused on vs off")

	counter := func(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }
	for i := 0; i < base.p; i++ {
		l := fmt.Sprintf(`{ps="%d"}`, i)
		if n := counter(fused.reg, "fedms_ps_agg_fused_total"+l); n == 0 {
			t.Fatalf("fused arm: PS %d reported no fused aggregations", i)
		}
		if n := counter(off.reg, "fedms_ps_agg_fused_total"+l); n != 0 {
			t.Fatalf("NoFuse arm: PS %d reported %d fused aggregations", i, n)
		}
		if n := counter(off.reg, "fedms_ps_agg_fallback_total"+l); n == 0 {
			t.Fatalf("NoFuse arm: PS %d reported no fallback aggregations", i)
		}
	}
	for k := 0; k < base.k; k++ {
		l := fmt.Sprintf(`{client="%d"}`, k)
		if n := counter(fused.reg, "fedms_client_filter_fused_total"+l); n == 0 {
			t.Fatalf("fused arm: client %d reported no fused filter rounds", k)
		}
		if n := counter(off.reg, "fedms_client_filter_fused_total"+l); n != 0 {
			t.Fatalf("NoFuse arm: client %d reported %d fused filter rounds", k, n)
		}
	}
}

// TestPSCorruptSparseFramePayloadDegradesLikeDrop pins the rejection
// boundary of the fused path at the wire: a checksummed upload frame
// whose sparse payload is malformed (duplicate indices — the codecs
// never emit them, so the sender is lying) must be rejected by
// ParsePayload before any accumulator sees it, and the tolerant PS must
// degrade it exactly like a dropped frame: counted missed, connection
// kept, the round's aggregate built from the remaining honest upload.
func TestPSCorruptSparseFramePayloadDegradesLikeDrop(t *testing.T) {
	const dim = 6
	good := []float64{1, 2, 0, 0, 3, 4}

	reg := obs.NewRegistry()
	p, conns, cli := pipePS(t, PSConfig{
		ID: 0, Clients: 2, Rounds: 1,
		Tolerant: true,
		Timeout:  2 * time.Second,
		Obs:      reg,
	}, nil)
	p.v2ok = []bool{true, true}
	// Client-side recv is generous (pipePS) because race-instrumented
	// parallel package runs can starve this test of CPU for seconds at a
	// time; the server side is bounded by the malformed marker itself,
	// which is consumed as this round's miss.
	c0, c1 := cli[0], cli[1]

	// A syntactically well-formed frame whose sparse payload repeats an
	// index: it passes every transport-layer check (length, checksum)
	// and must die in ParsePayload.
	dupSparse := compress.Sparse{
		Dim:     dim,
		Indices: []uint32{2, 2},
		Values:  []float64{1e9, -1e9},
	}
	dupPayload := dupSparse.AppendEncode(nil)

	type recv struct {
		vec []float64
		err error
	}
	got := make(chan recv, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client 0: honest dense upload, then read the model
		defer wg.Done()
		if err := c0.Send(&transport.Message{
			Type: transport.TypeUpload, Round: 0, Sender: 0, Flag: 1,
			Vec: append([]float64(nil), good...),
		}); err != nil {
			got <- recv{err: err}
			return
		}
		m, err := c0.Recv()
		if err != nil {
			got <- recv{err: err}
			return
		}
		got <- recv{vec: m.Vec}
	}()
	go func() { // client 1: the lying frame, then read the model
		defer wg.Done()
		if err := c1.Send(&transport.Message{
			Type: transport.TypeUpload, Round: 0, Sender: 1, Flag: 1,
			Enc: compress.EncSparse, Payload: dupPayload,
		}); err != nil {
			got <- recv{err: err}
			return
		}
		m, err := c1.Recv()
		if err != nil {
			got <- recv{err: err}
			return
		}
		got <- recv{vec: m.Vec}
	}()

	if err := p.serveRound(0, conns); err != nil {
		t.Fatalf("serveRound: %v", err)
	}
	wg.Wait()
	close(got)
	for r := range got {
		if r.err != nil {
			t.Fatalf("client: %v", r.err)
		}
		// Mean over the single surviving member is that member's model.
		if len(r.vec) != dim {
			t.Fatalf("downlink dim %d, want %d", len(r.vec), dim)
		}
		for j := range good {
			if r.vec[j] != good[j] {
				t.Fatalf("aggregate coord %d = %v, want %v (bad payload leaked into the accumulator?)",
					j, r.vec[j], good[j])
			}
		}
	}

	st := p.Stats()
	if st.UploadsReceived != 1 {
		t.Fatalf("UploadsReceived = %d, want 1", st.UploadsReceived)
	}
	if st.UploadsMissed != 1 {
		t.Fatalf("UploadsMissed = %d, want 1 (malformed payload must degrade like a drop)", st.UploadsMissed)
	}
	if st.ClientsLost != 0 {
		t.Fatalf("ClientsLost = %d, want 0 (the connection must survive)", st.ClientsLost)
	}
	if conns[1] == nil {
		t.Fatal("lying client's connection was condemned; want kept")
	}
	if n := reg.Counter(`fedms_ps_frames_skipped_total{ps="0"}`).Value(); n != 1 {
		t.Fatalf("frames_skipped = %d, want 1", n)
	}
	if n := reg.Counter(`fedms_ps_agg_fused_total{ps="0"}`).Value(); n != 1 {
		t.Fatalf("agg_fused = %d, want 1", n)
	}
}
