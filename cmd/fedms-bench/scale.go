package main

// scale.go implements `fedms-bench -exp scale`: the rounds/sec-vs-K
// curve of the flat fused aggregation (DESIGN.md §6). Each point
// simulates the aggregation round of a federation with K clients —
// participation sampling, sparse upload assignment and topk payload
// uploads exactly as the engine derives them — reduced by aggregate.Run
// on one goroutine per parameter server, so the measured quantity is
// the server-side cost that dominates at scale (local SGD is
// embarrassingly parallel across edge devices and off the critical
// path here). The curve goes out to K = 100k simulated clients.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/compress"
	"fedms/internal/core"
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
	scaleSpec    = "topk:0.01"
	scalePool    = 64
)

// scaleSchema versions the scale_curve.json layout.
const scaleSchema = "fedms-bench/scale/v3"

// scaleEntry is one measured point of the curve; scaleCurve documents
// what each field holds. Iters is how many rounds NsPerOp averages.
type scaleEntry struct {
	Name    string  `json:"name"`
	Dim     int     `json:"d"`
	Inputs  int     `json:"n"`
	Workers int     `json:"workers"`
	Shape   string  `json:"shape"`
	Iters   int     `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
}

// scaleCurve holds the scale_curve.json artifact.
type scaleCurve struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	Seed       uint64 `json:"seed"`
	// Points are the simulated-round measurements: Name
	// "scale/sim_round", Dim=d, Inputs=K, Workers=1 (each server
	// aggregates serially), Shape the participation fraction, NsPerOp
	// ns per full round (all P servers).
	Points []scaleEntry `json:"points"`
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

// scaleRound runs one simulated aggregation round at (K, participation).
// aggBufs persists across rounds so benign-server buffer reuse is
// measured exactly as the engine runs it.
func scaleRound(seed uint64, round, k int, f float64, pool []compress.Payload, aggBufs [][]float64) {
	active := core.ActiveClients(seed, round, k, f)
	assign := make([][]int, scaleServers)
	for _, c := range active {
		i := core.SparseUploadChoice(seed, round, c, scaleServers)
		assign[i] = append(assign[i], c)
	}
	for i := 0; i < scaleServers; i++ {
		if len(assign[i]) == 0 {
			continue
		}
		views := make([]compress.Payload, len(assign[i]))
		for j, c := range assign[i] {
			views[j] = pool[c%len(pool)]
		}
		res := aggregate.Run(aggregate.Request{
			Rule: aggregate.Mean{}, Views: views, Dst: aggBufs[i],
		})
		if !res.Fused {
			panic("scale: mean must take the fused path")
		}
		aggBufs[i] = res.Out
	}
}

// scalePoint measures rounds/sec at one (K, participation) point.
func scalePoint(out io.Writer, seed uint64, k int, f float64, pool []compress.Payload, minTime time.Duration) scaleEntry {
	aggBufs := make([][]float64, scaleServers)
	// Warm-up round: first-touch allocation of the aggregate buffers
	// happens here, not in the timed region.
	scaleRound(seed, 0, k, f, pool, aggBufs)
	start := time.Now()
	var elapsed time.Duration
	iters := 0
	for elapsed < minTime {
		scaleRound(seed, iters+1, k, f, pool, aggBufs)
		iters++
		elapsed = time.Since(start)
	}
	ns := float64(elapsed.Nanoseconds()) / float64(iters)
	e := scaleEntry{
		Name: "scale/sim_round", Dim: scaleDim, Inputs: k, Workers: 1,
		Shape: fmt.Sprintf("f=%.2f", f), Iters: iters, NsPerOp: ns,
	}
	fmt.Fprintf(out, "  %-28s K=%-7d f=%.2f %12.0f ns/round %10.1f rounds/sec\n",
		e.Name, k, f, ns, 1e9/ns)
	return e
}

// runScale executes `-exp scale`: the full rounds/sec-vs-K curve with
// the participation-subsampling ablation, written to path as
// scale_curve.json.
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
	fmt.Fprintf(out, "Scale pass (flat fused mean: d=%d, P=%d, %s uploads):\n",
		scaleDim, scaleServers, scaleSpec)
	pool, err := scalePayloadPool(seed, scaleDim)
	if err != nil {
		return err
	}
	for _, k := range ks {
		for _, f := range fs {
			curve.Points = append(curve.Points, scalePoint(out, seed, k, f, pool, minTime))
		}
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
