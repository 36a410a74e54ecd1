// Package netsim models the edge network the paper's system lives on:
// per-link latency and bandwidth between K clients and P edge
// parameter servers, and the synchronous-round makespan that follows
// from an upload assignment.
//
// The paper argues for sparse uploading by counting messages (K vs
// K×P). This package turns that count into wall-clock terms: with
// heterogeneous links, the round time is the slowest client's transfer
// plus the dissemination fan-out, so full upload multiplies every
// client's upload bytes by P while sparse upload keeps one model per
// client in flight.
package netsim

import (
	"fmt"
	"time"

	"fedms/internal/randx"
)

// Link is a directed network path with fixed latency and bandwidth.
type Link struct {
	Latency   time.Duration
	Bandwidth float64 // bytes per second
}

// TransferTime returns latency + bytes/bandwidth for one message.
func (l Link) TransferTime(bytes int) time.Duration {
	if l.Bandwidth <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	return l.Latency + time.Duration(float64(bytes)/l.Bandwidth*float64(time.Second))
}

// Topology holds the client↔server links of a FEEL deployment. Links
// are symmetric (uplink == downlink) for simplicity; edge asymmetry can
// be modelled by scaling bytes.
type Topology struct {
	Clients int
	Servers int
	links   [][]Link // [client][server]
}

// Config parameterizes a randomized topology.
type Config struct {
	Clients int
	Servers int
	// BaseLatency and LatencyJitter bound per-link latency:
	// latency ~ Base + U[0, Jitter].
	BaseLatency   time.Duration
	LatencyJitter time.Duration
	// BaseBandwidth and BandwidthSpread bound per-link bandwidth in
	// bytes/s: bandwidth ~ Base · (1 − Spread/2 + U[0, Spread]).
	BaseBandwidth   float64
	BandwidthSpread float64
	Seed            uint64
}

// New builds a deterministic random topology.
func New(cfg Config) (*Topology, error) {
	if cfg.Clients <= 0 || cfg.Servers <= 0 {
		return nil, fmt.Errorf("netsim: need positive clients and servers")
	}
	if cfg.BaseBandwidth <= 0 {
		return nil, fmt.Errorf("netsim: need positive base bandwidth")
	}
	if cfg.BandwidthSpread < 0 || cfg.BandwidthSpread >= 2 {
		return nil, fmt.Errorf("netsim: bandwidth spread must be in [0, 2)")
	}
	t := &Topology{
		Clients: cfg.Clients,
		Servers: cfg.Servers,
		links:   make([][]Link, cfg.Clients),
	}
	r := randx.Split(cfg.Seed, "netsim")
	for k := range t.links {
		t.links[k] = make([]Link, cfg.Servers)
		for s := range t.links[k] {
			lat := cfg.BaseLatency
			if cfg.LatencyJitter > 0 {
				lat += time.Duration(r.Int64N(int64(cfg.LatencyJitter)))
			}
			bw := cfg.BaseBandwidth * (1 - cfg.BandwidthSpread/2 + cfg.BandwidthSpread*r.Float64())
			t.links[k][s] = Link{Latency: lat, Bandwidth: bw}
		}
	}
	return t, nil
}

// Link returns the client↔server link.
func (t *Topology) Link(client, server int) Link {
	return t.links[client][server]
}

// SparseAssignment builds the Fed-MS upload assignment for round t:
// each client uploads to one uniformly random server. choice derives
// the per-client server exactly like the engine (pass
// core.SparseUploadChoice).
func SparseAssignment(clients, servers, round int, choice func(round, client, servers int) int) [][]int {
	out := make([][]int, clients)
	for k := range out {
		out[k] = []int{choice(round, k, servers)}
	}
	return out
}

// FullAssignment builds the everyone-to-everyone assignment.
func FullAssignment(clients, servers int) [][]int {
	all := make([]int, servers)
	for s := range all {
		all[s] = s
	}
	out := make([][]int, clients)
	for k := range out {
		out[k] = all
	}
	return out
}

// computeOf reads the per-client local compute time from an optional
// schedule (nil means instantaneous training).
func computeOf(compute []time.Duration, k int) time.Duration {
	if k < len(compute) {
		return compute[k]
	}
	return 0
}

// RoundTimeWithCompute computes the makespan of one synchronous Fed-MS
// round:
//
//   - upload phase: client k trains for compute[k] (nil compute means
//     instantaneous training), then transfers modelBytes to each server
//     in its assignment row (assignment[k] lists the servers client k
//     uploads to); a client's uploads are serialized on its uplink, and
//     the phase ends when the slowest client finishes, so one slow
//     trainer stretches the synchronous barrier by its full compute
//     time;
//   - dissemination phase (see download).
//
// Aggregation compute is taken as zero (edge servers are fast relative
// to WAN transfers).
func (t *Topology) RoundTimeWithCompute(assignment [][]int, modelBytes int, compute []time.Duration) time.Duration {
	var upload time.Duration
	for k, servers := range assignment {
		clientTime := computeOf(compute, k)
		for _, s := range servers {
			clientTime += t.links[k][s].TransferTime(modelBytes)
		}
		upload = max(upload, clientTime)
	}
	return upload + t.download(modelBytes)
}

// download is the dissemination phase of a round: every server sends
// the aggregate to every client; a client's downloads arrive in
// parallel from different servers but share no bottleneck in this
// model, so the phase ends at the slowest single link.
func (t *Topology) download(modelBytes int) time.Duration {
	var d time.Duration
	for k := 0; k < t.Clients; k++ {
		for s := 0; s < t.Servers; s++ {
			d = max(d, t.links[k][s].TransferTime(modelBytes))
		}
	}
	return d
}

// AsyncStats tallies the admission outcome of one windowed round.
type AsyncStats struct {
	// Fresh counts uploads that land inside the window; Late counts
	// uploads still in flight when it closes (they arrive stale in a
	// later round, or not at all past the staleness bound).
	Fresh, Late int
}

// AsyncRoundTime computes the makespan of one windowed async round:
// the upload phase ends at the window deadline no matter how slow the
// slowest client is — uploads still in flight are tallied Late rather
// than waited for — and the dissemination fan-out is unchanged. This
// is the analytic counterpart of the distributed PS's window barrier:
// round time is bounded by window + dissemination, not by the
// straggler.
func (t *Topology) AsyncRoundTime(assignment [][]int, modelBytes int, window time.Duration, compute []time.Duration) (time.Duration, AsyncStats) {
	if window <= 0 {
		panic("netsim: non-positive window")
	}
	var st AsyncStats
	var upload time.Duration
	for k, servers := range assignment {
		clientTime := computeOf(compute, k)
		for _, s := range servers {
			clientTime += t.links[k][s].TransferTime(modelBytes)
			if clientTime <= window {
				st.Fresh++
			} else {
				st.Late++
			}
		}
		upload = max(upload, clientTime)
	}
	return min(upload, window) + t.download(modelBytes), st
}

// CompareUploads reports the mean round time of sparse vs full
// uploading over the given number of rounds.
func (t *Topology) CompareUploads(rounds, modelBytes int, choice func(round, client, servers int) int) (sparse, full time.Duration) {
	var sparseTotal, fullTotal time.Duration
	fullAssign := FullAssignment(t.Clients, t.Servers)
	for round := 0; round < rounds; round++ {
		sparseTotal += t.RoundTimeWithCompute(SparseAssignment(t.Clients, t.Servers, round, choice), modelBytes, nil)
		fullTotal += t.RoundTimeWithCompute(fullAssign, modelBytes, nil)
	}
	return sparseTotal / time.Duration(rounds), fullTotal / time.Duration(rounds)
}
