package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/sched"
)

// asyncConfig is baseConfig switched to the windowed lifecycle. The
// window is a quarter of the virtual latency scale, so uploads land
// 0-3 rounds late and a staleness bound of 2 exercises all three
// admission outcomes (fresh, stale, dropped).
func asyncConfig(k, p, b int, filter aggregate.Rule) Config {
	c := baseConfig(k, p, b, attack.None{}, filter)
	c.Async = true
	c.Window = sched.DefaultLatencyScale / 4
	c.Staleness = 2
	return c
}

// runAsync builds a fresh fixture, runs the config to completion and
// returns the round stats plus the final client models.
func runAsync(t *testing.T, cfg Config) ([]RoundStats, [][]float64) {
	t.Helper()
	learners, _ := testFixture(t, cfg.Clients, 7)
	e, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stats := e.Run()
	params := make([][]float64, len(learners))
	for i, l := range learners {
		params[i] = l.Params()
	}
	return stats, params
}

// stripElapsed zeroes the wall-clock field so seeded runs compare
// deterministically.
func stripElapsed(stats []RoundStats) []RoundStats {
	out := append([]RoundStats(nil), stats...)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

func assertSameParams(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	for k := range want {
		for j := range want[k] {
			if math.Float64bits(got[k][j]) != math.Float64bits(want[k][j]) {
				t.Fatalf("%s: client %d coord %d: %x != %x", label, k, j,
					math.Float64bits(got[k][j]), math.Float64bits(want[k][j]))
			}
		}
	}
}

// TestAsyncDeterminism is the engine half of the async reproducibility
// contract: two runs of the same seeded config — virtual clock,
// staleness weighting, spill traffic and all — produce identical round
// stats and bit-identical models.
func TestAsyncDeterminism(t *testing.T) {
	for _, filter := range []aggregate.Rule{aggregate.Mean{}, aggregate.TrimmedMean{Beta: 0.2}} {
		cfg := asyncConfig(10, 3, 1, aggregate.TrimmedMean{Beta: 0.34})
		cfg.ServerFilter = filter
		cfg.Rounds = 8
		s1, p1 := runAsync(t, cfg)
		s2, p2 := runAsync(t, cfg)
		if !reflect.DeepEqual(stripElapsed(s1), stripElapsed(s2)) {
			t.Fatalf("%s: async stats diverged across identical seeded runs", filter.Name())
		}
		assertSameParams(t, filter.Name(), p2, p1)
		var fresh, stale, dropped int
		for _, st := range s1 {
			fresh += st.FreshUploads
			stale += st.StaleUploads
			dropped += st.DroppedUploads
		}
		if fresh == 0 || stale == 0 || dropped == 0 {
			t.Fatalf("%s: admission outcomes not all exercised: fresh=%d stale=%d dropped=%d",
				filter.Name(), fresh, stale, dropped)
		}
	}
}

// TestAsyncWideWindowMatchesSync pins the refactor's bit-identity
// contract from the other side: with a window at least the virtual
// latency scale every upload arrives fresh at weight exactly 1, and
// the async lifecycle's trajectory is bit-identical to the sync
// barrier's — same train losses, same aggregates, same final models.
func TestAsyncWideWindowMatchesSync(t *testing.T) {
	sync := baseConfig(8, 3, 1, attack.Backward{}, aggregate.TrimmedMean{Beta: 0.34})
	sync.Rounds = 6

	async := sync
	async.Async = true
	async.Window = sched.DefaultLatencyScale
	async.Staleness = 3

	sSync, pSync := runAsync(t, sync)
	sAsync, pAsync := runAsync(t, async)

	assertSameParams(t, "wide-window", pAsync, pSync)
	for i := range sSync {
		a, b := sSync[i], sAsync[i]
		if b.StaleUploads != 0 || b.DroppedUploads != 0 || b.SpillDepth != 0 {
			t.Fatalf("round %d: wide window produced stale traffic: %+v", i, b)
		}
		if b.FreshUploads != sync.Clients {
			t.Fatalf("round %d: FreshUploads = %d, want %d", i, b.FreshUploads, sync.Clients)
		}
		if math.Float64bits(a.TrainLoss) != math.Float64bits(b.TrainLoss) ||
			math.Float64bits(a.ModelSpread) != math.Float64bits(b.ModelSpread) ||
			math.Float64bits(a.TestAcc) != math.Float64bits(b.TestAcc) ||
			a.UploadBytes != b.UploadBytes || a.DownloadBytes != b.DownloadBytes {
			t.Fatalf("round %d diverged: sync %+v async %+v", i, a, b)
		}
	}
}

// TestAsyncSpillPathsBitIdentical is the engine-level differential for
// the spill tier: forcing every deferred upload straight to disk
// (SpillMem < 0) must reproduce the in-memory run bit for bit, through
// the CRC-framed segment round-trip.
func TestAsyncSpillPathsBitIdentical(t *testing.T) {
	mem := asyncConfig(10, 3, 1, aggregate.TrimmedMean{Beta: 0.34})
	mem.Rounds = 8
	mem.SpillDir = t.TempDir()

	disk := mem
	disk.SpillMem = -1
	disk.SpillDir = t.TempDir()

	sMem, pMem := runAsync(t, mem)
	sDisk, pDisk := runAsync(t, disk)

	assertSameParams(t, "spill-differential", pDisk, pMem)
	for i := range sMem {
		if sMem[i].SpillDepth != sDisk[i].SpillDepth {
			t.Fatalf("round %d: spill depth %d vs %d", i, sMem[i].SpillDepth, sDisk[i].SpillDepth)
		}
	}
	var spilled, diskBytes int
	for i := range sMem {
		spilled += sMem[i].SpillDepth
		diskBytes += sDisk[i].SpillBytes
	}
	if spilled == 0 {
		t.Fatal("scenario never deferred an upload; spill path untested")
	}
	if diskBytes == 0 {
		t.Fatal("forced-disk run reported no spill bytes")
	}
}

// TestAsyncWithCodecThroughDiskSpill runs the windowed lifecycle
// through the upload codec: codec payloads deferred straight to disk
// (SpillMem < 0) must survive the spill byte round-trip and reproduce
// the in-memory run bit for bit.
func TestAsyncWithCodecThroughDiskSpill(t *testing.T) {
	mem := asyncConfig(10, 3, 1, aggregate.TrimmedMean{Beta: 0.34})
	mem.Rounds = 8
	spec, err := compress.ParseSpec("topk:0.5")
	if err != nil {
		t.Fatal(err)
	}
	mem.UploadCodec = spec
	mem.SpillDir = t.TempDir()

	disk := mem
	disk.SpillMem = -1
	disk.SpillDir = t.TempDir()

	_, pMem := runAsync(t, mem)
	sDisk, pDisk := runAsync(t, disk)
	assertSameParams(t, "async-codec-disk-spill", pDisk, pMem)
	diskBytes := 0
	for _, st := range sDisk {
		diskBytes += st.SpillBytes
	}
	if diskBytes == 0 {
		t.Fatal("forced-disk run reported no spill bytes; codec spill path untested")
	}
}

// TestAsyncConfigValidation pins the fail-fast contract around the
// async knobs.
func TestAsyncConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"window without async", func(c *Config) { c.Async = false; c.Window = time.Second; c.Staleness = 0; c.SpillMem = 0 }},
		{"staleness without async", func(c *Config) { c.Async = false; c.Window = 0; c.Staleness = 2; c.SpillMem = 0 }},
		{"spill knobs without async", func(c *Config) { c.Async = false; c.Window = 0; c.Staleness = 0; c.SpillMem = 4096 }},
		{"negative window", func(c *Config) { c.Window = -time.Second }},
		{"negative staleness", func(c *Config) { c.Staleness = -1 }},
		{"non-weighted server rule", func(c *Config) { c.ServerFilter = aggregate.NoFuse{Rule: aggregate.Mean{}} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := asyncConfig(10, 3, 1, aggregate.Mean{})
			tt.mutate(&c)
			if _, err := c.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
	if c := asyncConfig(10, 3, 1, aggregate.Mean{}); func() bool { _, err := c.Validate(); return err != nil }() {
		t.Fatal("valid async config rejected")
	}
	// Window defaults when unset.
	c := asyncConfig(10, 3, 1, aggregate.Mean{})
	c.Window = 0
	v, err := c.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if v.Window != sched.DefaultLatencyScale/4 {
		t.Fatalf("default Window = %v", v.Window)
	}
}
