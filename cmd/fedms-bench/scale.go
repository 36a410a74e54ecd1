package main

// scale.go implements `fedms-bench -exp scale`: the rounds/sec-vs-K
// curve of the two-tier sharded aggregation tree (DESIGN.md §6). Each
// point simulates the aggregation round of a federation with K clients
// — participation sampling, sparse upload assignment and topk payload
// uploads exactly as the engine derives them — reduced through
// aggregate.Run's shard tree per parameter server, so the measured
// quantity is the server-side cost that dominates at scale (local SGD
// is embarrassingly parallel across edge devices and off the critical
// path here).
// The curve goes out to K = 100k simulated clients; a distributed
// smoke point runs a small real PS+client federation over loopback TCP
// with the sharded path enabled. Peak per-shard accumulator bytes are
// reported with every point — the observable side of the O(K·d/S)
// memory contract.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"fedms"
	"fedms/internal/aggregate"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/node"
	"fedms/internal/randx"
)

// scaleConfig fixes the non-swept knobs of the simulated round. The
// payload pool holds a bounded number of distinct encoded uploads that
// clients cycle through: the aggregation cost is per-row, not
// per-distinct-row, so the measurement is unchanged while memory stays
// flat out to K = 100k.
const (
	scaleDim     = 10_000
	scaleServers = 10
	scaleShards  = 16
	scaleSpec    = "topk:0.01"
	scalePool    = 64
)

// scaleSchema versions the scale_curve.json layout.
const scaleSchema = "fedms-bench/scale/v1"

// scaleEntry is one measured point of the curve; scaleCurve documents
// what each field holds. Iters is how many rounds NsPerOp averages.
type scaleEntry struct {
	Name     string  `json:"name"`
	Dim      int     `json:"d"`
	Inputs   int     `json:"n"`
	Workers  int     `json:"workers"`
	Shape    string  `json:"shape"`
	AccBytes int     `json:"acc_bytes"`
	Iters    int     `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
}

// scaleCurve holds the scale_curve.json artifact.
type scaleCurve struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	Seed       uint64 `json:"seed"`
	// Points are the simulated-round measurements: Name
	// "scale/sim_round", Dim=d, Inputs=K, Workers=S, Shape the
	// participation fraction, AccBytes the peak per-shard accumulator,
	// NsPerOp ns per full round (all P servers).
	Points []scaleEntry `json:"points"`
	// Smoke is the distributed smoke point: a real PS+client federation
	// over loopback TCP with Shards enabled, reported as ns per round.
	Smoke *scaleEntry `json:"smoke,omitempty"`
}

// scalePayloadPool pre-encodes the distinct upload payloads outside the
// timed region.
func scalePayloadPool(seed uint64, d int) ([]compress.Payload, error) {
	sp, err := compress.ParseSpec(scaleSpec)
	if err != nil {
		return nil, err
	}
	views := make([]compress.Payload, scalePool)
	r := randx.New(seed ^ 0x5ca1e)
	vec := make([]float64, d)
	for i := range views {
		randx.Normal(r, vec, 0, 1)
		c, err := sp.NewCodec(randx.Derive(seed, fmt.Sprintf("scale/%d", i)))
		if err != nil {
			return nil, err
		}
		enc, buf := c.AppendEncode(nil, vec)
		if views[i], err = compress.ParsePayload(enc, buf); err != nil {
			return nil, err
		}
	}
	return views, nil
}

// scaleRound runs one simulated aggregation round at (K, participation)
// and returns the largest per-shard accumulator any server reached.
// aggBufs persists across rounds so benign-server buffer reuse is
// measured exactly as the engine runs it.
func scaleRound(seed uint64, round, k int, f float64, pool []compress.Payload, aggBufs [][]float64) int64 {
	active := core.ActiveClients(seed, round, k, f)
	assign := make([][]int, scaleServers)
	for _, c := range active {
		i := core.SparseUploadChoice(seed, round, c, scaleServers)
		assign[i] = append(assign[i], c)
	}
	var peak int64
	for i := 0; i < scaleServers; i++ {
		if len(assign[i]) == 0 {
			continue
		}
		views := make([]compress.Payload, len(assign[i]))
		for j, c := range assign[i] {
			views[j] = pool[c%len(pool)]
		}
		res := aggregate.Run(aggregate.Request{
			Rule: aggregate.Mean{}, Views: views, Shards: scaleShards, Dst: aggBufs[i],
		})
		if !res.Sharded {
			panic("scale: mean must be shardable")
		}
		aggBufs[i] = res.Out
		if res.PeakBytes > peak {
			peak = res.PeakBytes
		}
	}
	return peak
}

// scalePoint measures rounds/sec at one (K, participation) point.
func scalePoint(out io.Writer, seed uint64, k int, f float64, pool []compress.Payload, minTime time.Duration) scaleEntry {
	aggBufs := make([][]float64, scaleServers)
	var peak int64
	// Warm-up round: first-touch allocation of the shard blocks and agg
	// buffers happens here, not in the timed region.
	scaleRound(seed, 0, k, f, pool, aggBufs)
	start := time.Now()
	var elapsed time.Duration
	iters := 0
	for elapsed < minTime {
		if p := scaleRound(seed, iters+1, k, f, pool, aggBufs); p > peak {
			peak = p
		}
		iters++
		elapsed = time.Since(start)
	}
	ns := float64(elapsed.Nanoseconds()) / float64(iters)
	e := scaleEntry{
		Name: "scale/sim_round", Dim: scaleDim, Inputs: k, Workers: scaleShards,
		Shape: fmt.Sprintf("f=%.2f", f), AccBytes: int(peak),
		Iters: iters, NsPerOp: ns,
	}
	fmt.Fprintf(out, "  %-28s K=%-7d f=%.2f S=%-3d %12.0f ns/round %10.1f rounds/sec  peak shard %9d B\n",
		e.Name, k, f, scaleShards, ns, 1e9/ns, peak)
	return e
}

// scaleSmoke runs the distributed smoke point: a real federation (P
// parameter servers, K client goroutines, loopback TCP) with the
// streaming sharded path enabled on every PS.
func scaleSmoke(out io.Writer, seed uint64, quick bool) (*scaleEntry, error) {
	k, p, rounds, shards := 8, 3, 3, 4
	if quick {
		k, rounds = 4, 2
	}
	eng, err := fedms.BuildEngine(fedms.Config{
		Clients: k, Servers: p, Rounds: rounds, LocalSteps: 1,
		Upload: fedms.FullUpload, TrimBeta: 0.2, Shards: shards,
		Dataset: fedms.DatasetSpec{Kind: fedms.DatasetBlobs, Samples: 800},
		Model:   fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{32}},
		Seed:    seed, EvalEvery: -1,
	})
	if err != nil {
		return nil, err
	}
	// Every node's configuration derives from the engine's resolved spec.
	cfg := eng.Config()

	servers := make([]*node.PS, p)
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		pc, err := node.PSConfigFor(cfg, i)
		if err != nil {
			return nil, err
		}
		pc.ListenAddr, pc.Timeout = "127.0.0.1:0", 30*time.Second
		ps, err := node.NewPS(pc)
		if err != nil {
			return nil, err
		}
		servers[i] = ps
		addrs[i] = ps.Addr()
	}
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, p+k)
	for _, ps := range servers {
		wg.Add(1)
		go func(ps *node.PS) {
			defer wg.Done()
			if err := ps.Serve(); err != nil {
				errCh <- err
			}
		}(ps)
	}
	for id, l := range eng.Learners() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc, err := node.ClientConfigFor(cfg, id, l)
			if err == nil {
				cc.Servers, cc.Timeout = addrs, 30*time.Second
				_, err = node.RunClient(cc)
			}
			if err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return nil, fmt.Errorf("scale smoke: %w", err)
	}
	elapsed := time.Since(start)
	var peak int64
	for _, ps := range servers {
		if pk := ps.Stats().ShardPeakBytes; pk > peak {
			peak = pk
		}
	}
	ns := float64(elapsed.Nanoseconds()) / float64(rounds)
	e := &scaleEntry{
		Name: "scale/distributed_smoke", Dim: eng.Dim(), Inputs: k, Workers: shards,
		Shape: "f=1.00", AccBytes: int(peak), Iters: rounds, NsPerOp: ns,
	}
	fmt.Fprintf(out, "  %-28s K=%-7d P=%d S=%-3d %12.0f ns/round (real TCP federation, peak shard %d B)\n",
		e.Name, k, p, shards, ns, peak)
	return e, nil
}

// runScale executes `-exp scale`: the full rounds/sec-vs-K curve with
// the participation-subsampling ablation and the distributed smoke
// point, written to path as scale_curve.json.
func runScale(out io.Writer, path string, seed uint64, quick bool) error {
	ks := []int{1_000, 10_000, 100_000}
	fs := []float64{1.0, 0.1}
	minTime := 500 * time.Millisecond
	if quick {
		ks = []int{200, 1_000}
		minTime = 5 * time.Millisecond
	}
	curve := &scaleCurve{
		Schema:     scaleSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Seed:       seed,
	}
	fmt.Fprintf(out, "Scale pass (two-tier shard tree: d=%d, P=%d, S=%d, %s uploads):\n",
		scaleDim, scaleServers, scaleShards, scaleSpec)
	pool, err := scalePayloadPool(seed, scaleDim)
	if err != nil {
		return err
	}
	for _, k := range ks {
		for _, f := range fs {
			curve.Points = append(curve.Points, scalePoint(out, seed, k, f, pool, minTime))
		}
	}
	if curve.Smoke, err = scaleSmoke(out, seed, quick); err != nil {
		return err
	}
	data, err := json.MarshalIndent(curve, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
