package main

// straggler.go implements `fedms-bench -exp straggler`: the round-time
// vs straggler-slowdown curve contrasting the synchronous barrier with
// bounded-staleness async rounds (DESIGN.md §7). One client's local
// compute is stretched by a growing slowdown factor over a fixed
// heterogeneous edge topology; the sync barrier's round time grows
// linearly with the straggler while the async round stays capped by
// the collection window, with the straggler's uploads counted Late.
// The curve is written as straggler_curve.json, a `make straggler` CI
// artifact like scale_curve.json.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"fedms/internal/netsim"
)

// Fixed knobs of the straggler simulation: a Fed-MS-sized federation
// with full upload (so the straggler stalls every server's barrier), a
// ~2MB/s heterogeneous edge network as in the commcost experiment, and
// an async window generous enough that every non-straggler arrives
// fresh at slowdown 1.
const (
	stragClients = 40
	stragServers = 5
	stragDim     = 10_000
	stragBase    = 200 * time.Millisecond
	stragWindow  = 1 * time.Second
)

// stragglerSchema versions the straggler_curve.json layout.
const stragglerSchema = "fedms-bench/straggler/v1"

// stragglerPoint is one slowdown factor's measurement.
type stragglerPoint struct {
	// Slowdown multiplies the straggler's local compute time.
	Slowdown float64 `json:"slowdown"`
	// SyncNs and AsyncNs are the simulated round makespans of the
	// synchronous barrier and the windowed async round.
	SyncNs  float64 `json:"sync_ns"`
	AsyncNs float64 `json:"async_ns"`
	// Fresh and Late count per-server upload arrivals inside and past
	// the async window.
	Fresh int `json:"fresh"`
	Late  int `json:"late"`
}

// stragglerCurve is the root of straggler_curve.json.
type stragglerCurve struct {
	Schema     string           `json:"schema"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Quick      bool             `json:"quick"`
	Seed       uint64           `json:"seed"`
	Clients    int              `json:"clients"`
	Servers    int              `json:"servers"`
	ModelBytes int              `json:"model_bytes"`
	WindowNs   float64          `json:"window_ns"`
	Points     []stragglerPoint `json:"points"`
}

// runStraggler executes `-exp straggler` and writes the curve to path.
func runStraggler(out io.Writer, path string, seed uint64, quick bool) error {
	slowdowns := []float64{1, 2, 5, 10, 30, 100}
	if quick {
		slowdowns = []float64{1, 10, 100}
	}
	top, err := netsim.New(netsim.Config{
		Clients: stragClients, Servers: stragServers,
		BaseLatency: 10 * time.Millisecond, LatencyJitter: 20 * time.Millisecond,
		BaseBandwidth: 2e6, BandwidthSpread: 1.0,
		Seed: seed,
	})
	if err != nil {
		return err
	}
	modelBytes := stragDim * 8
	assign := netsim.FullAssignment(stragClients, stragServers)
	curve := &stragglerCurve{
		Schema:     stragglerSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Seed:       seed,
		Clients:    stragClients,
		Servers:    stragServers,
		ModelBytes: modelBytes,
		WindowNs:   float64(stragWindow.Nanoseconds()),
	}
	fmt.Fprintf(out, "Straggler pass (netsim: K=%d, P=%d, %dB model, window %v, full upload):\n",
		stragClients, stragServers, modelBytes, stragWindow)
	compute := make([]time.Duration, stragClients)
	for _, s := range slowdowns {
		for i := range compute {
			compute[i] = stragBase
		}
		compute[0] = time.Duration(s * float64(stragBase))
		syncRT := top.RoundTimeWithCompute(assign, modelBytes, compute)
		asyncRT, st := top.AsyncRoundTime(assign, modelBytes, stragWindow, compute)
		curve.Points = append(curve.Points, stragglerPoint{
			Slowdown: s,
			SyncNs:   float64(syncRT.Nanoseconds()),
			AsyncNs:  float64(asyncRT.Nanoseconds()),
			Fresh:    st.Fresh, Late: st.Late,
		})
		fmt.Fprintf(out, "  slowdown %6.0fx  sync %12v  async %12v  fresh %4d  late %4d\n",
			s, syncRT, asyncRT, st.Fresh, st.Late)
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
