package netsim

import (
	"testing"
	"time"

	"fedms/internal/core"
)

func testTopology(t *testing.T) *Topology {
	t.Helper()
	top, err := New(Config{
		Clients:         10,
		Servers:         4,
		BaseLatency:     10 * time.Millisecond,
		LatencyJitter:   20 * time.Millisecond,
		BaseBandwidth:   1 << 20, // 1 MiB/s
		BandwidthSpread: 0.5,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Clients: 0, Servers: 1, BaseBandwidth: 1},
		{Clients: 1, Servers: 0, BaseBandwidth: 1},
		{Clients: 1, Servers: 1, BaseBandwidth: 0},
		{Clients: 1, Servers: 1, BaseBandwidth: 1, BandwidthSpread: 2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestLinkTransferTime(t *testing.T) {
	l := Link{Latency: 5 * time.Millisecond, Bandwidth: 1000} // 1000 B/s
	got := l.TransferTime(2000)
	want := 5*time.Millisecond + 2*time.Second
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
}

func TestTopologyDeterministic(t *testing.T) {
	a, b := testTopology(t), testTopology(t)
	for k := 0; k < 10; k++ {
		for s := 0; s < 4; s++ {
			if a.Link(k, s) != b.Link(k, s) {
				t.Fatal("same seed must reproduce the topology")
			}
		}
	}
}

func TestTopologyHeterogeneous(t *testing.T) {
	top := testTopology(t)
	same := true
	first := top.Link(0, 0)
	for k := 0; k < 10 && same; k++ {
		for s := 0; s < 4; s++ {
			if top.Link(k, s) != first {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("jittered topology has identical links")
	}
}

func TestRoundTimeSparseVsFull(t *testing.T) {
	top := testTopology(t)
	const modelBytes = 1 << 20 // ~1s per transfer at base bandwidth
	sparse := top.RoundTimeWithCompute(SparseAssignment(10, 4, 0, func(round, client, servers int) int {
		return core.SparseUploadChoice(1, round, client, servers)
	}), modelBytes, nil)
	full := top.RoundTimeWithCompute(FullAssignment(10, 4), modelBytes, nil)
	if full <= sparse {
		t.Fatalf("full upload (%v) should be slower than sparse (%v)", full, sparse)
	}
	// Upload phase scales ~P for full upload; with shared dissemination
	// the total ratio lands between 2x and P=4x here.
	ratio := float64(full) / float64(sparse)
	if ratio < 1.5 || ratio > 4.5 {
		t.Fatalf("full/sparse round-time ratio %v implausible", ratio)
	}
}

func TestRoundTimeIsMakespan(t *testing.T) {
	// Two clients, one server, no jitter: round time = slowest client
	// upload + slowest download = 2 equal transfers.
	top, err := New(Config{
		Clients: 2, Servers: 1,
		BaseLatency: 0, BaseBandwidth: 1000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := top.RoundTimeWithCompute([][]int{{0}, {0}}, 1000, nil) // 1s per transfer
	if rt != 2*time.Second {
		t.Fatalf("RoundTimeWithCompute = %v, want 2s", rt)
	}
}

func TestCompareUploads(t *testing.T) {
	top := testTopology(t)
	sparse, full := top.CompareUploads(5, 1<<19, func(round, client, servers int) int {
		return core.SparseUploadChoice(7, round, client, servers)
	})
	if sparse <= 0 || full <= sparse {
		t.Fatalf("sparse %v full %v", sparse, full)
	}
}

// stragglerCompute gives every client instantaneous training except
// the last, which takes `slow` before its upload starts.
func stragglerCompute(clients int, slow time.Duration) []time.Duration {
	compute := make([]time.Duration, clients)
	compute[clients-1] = slow
	return compute
}

// TestAsyncRoundTimeBoundedByWindow is the analytic straggler
// acceptance criterion: one client computing for 30s stretches the
// synchronous barrier past 30s, while the windowed round closes at
// window + dissemination and tallies the straggler's upload late.
func TestAsyncRoundTimeBoundedByWindow(t *testing.T) {
	top := testTopology(t)
	const modelBytes = 1 << 18
	const window = 2 * time.Second
	assign := FullAssignment(10, 4)
	compute := stragglerCompute(10, 30*time.Second)

	syncRT := top.RoundTimeWithCompute(assign, modelBytes, compute)
	if syncRT < 30*time.Second {
		t.Fatalf("sync round %v not stretched by the straggler", syncRT)
	}
	asyncRT, st := top.AsyncRoundTime(assign, modelBytes, window, compute)
	var maxDown time.Duration
	for k := 0; k < top.Clients; k++ {
		for s := 0; s < top.Servers; s++ {
			if d := top.Link(k, s).TransferTime(modelBytes); d > maxDown {
				maxDown = d
			}
		}
	}
	if asyncRT != window+maxDown {
		t.Fatalf("async round %v, want window %v + dissemination %v", asyncRT, window, maxDown)
	}
	if st.Late < top.Servers {
		t.Fatalf("straggler's %d uploads not tallied late: %+v", top.Servers, st)
	}
	if st.Fresh+st.Late != 10*4 {
		t.Fatalf("admission tally %+v does not cover the assignment", st)
	}
}

// TestAsyncRoundTimeWideWindowMatchesSync: a window past the slowest
// client collapses the async makespan to the synchronous one with
// nothing late.
func TestAsyncRoundTimeWideWindowMatchesSync(t *testing.T) {
	top := testTopology(t)
	const modelBytes = 1 << 18
	assign := SparseAssignment(10, 4, 0, func(round, client, servers int) int {
		return core.SparseUploadChoice(1, round, client, servers)
	})
	syncRT := top.RoundTimeWithCompute(assign, modelBytes, nil)
	asyncRT, st := top.AsyncRoundTime(assign, modelBytes, time.Hour, nil)
	if asyncRT != syncRT {
		t.Fatalf("wide-window async %v != sync %v", asyncRT, syncRT)
	}
	if st.Late != 0 || st.Fresh != 10 {
		t.Fatalf("wide window left uploads late: %+v", st)
	}
}
