package aggregate

import (
	"testing"

	"fedms/internal/compress"
	"fedms/internal/randx"
)

// shardSpecs is the codec roster of the sharded differential tier: one
// spec per payload shape the shard transpose handles distinctly —
// dense rows (block scatter), sparse rows (support-only arena), a
// quantized family (dense-mode dequantizing gather) and the
// error-feedback wrapper (sparse rows whose values depend on codec
// state).
var shardSpecs = []string{"dense", "topk:0.25", "topk:0.01", "q8", "ef+topk:0.1"}

// TestShardedAggregationBitIdentical is the differential contract of
// the two-tier aggregation tree: for every rule in the registry ×
// shard count × worker count × degraded quorum × payload codec,
// Run with Shards set must be bit-identical to the unsharded
// AggregatePayloads over the same member order. Shardable rules
// (mean, trimmed mean, median) must actually take the sharded path;
// every other rule must report the unsharded fallback. Dimensions
// cover a sub-tile vector, a multi-tile vector with ragged shard
// widths, and a vector past the parallel-dispatch work gate. make
// verify runs this under the race detector as a named stage.
func TestShardedAggregationBitIdentical(t *testing.T) {
	const pTotal = 7
	dims := []int{96, 700, minParallelWork/5 + 1}
	quorums := []int{pTotal, 3}
	shardCounts := []int{2, 5, 16}
	workers := []int{1, 4}

	r := randx.New(41)
	for _, d := range dims {
		full := randomVecs(r, pTotal, d)
		for _, spec := range shardSpecs {
			views, _ := encodeViews(t, spec, full, 911+uint64(d))
			for _, name := range RuleNames() {
				parsed, err := ParseRule(name)
				if err != nil {
					t.Fatalf("ParseRule(%q): %v", name, err)
				}
				if d > 1000 && !ShardableRule(parsed) {
					continue // the big-dim pass pins the sharded kernels, not the O(n²·d) baselines
				}
				for _, p := range quorums {
					sub := views[:p]
					for _, w := range workers {
						rule := WithWorkers(parsed, w)
						want, _ := AggregatePayloads(rule, sub)
						for _, s := range shardCounts {
							res := Run(Request{Rule: rule, Views: sub, Shards: s})
							got, sharded, peak := res.Out, res.Sharded, res.PeakBytes
							label := spec + "/" + name + "/d=" + itoa(d) +
								"/p=" + itoa(p) + "/w=" + itoa(w) + "/s=" + itoa(s)
							if sharded != ShardableRule(rule) {
								t.Fatalf("%s: sharded=%v, want %v", label, sharded, ShardableRule(rule))
							}
							if sharded && peak <= 0 {
								t.Fatalf("%s: sharded path reported peak %d bytes", label, peak)
							}
							assertBitIdentical(t, label, got, want)
						}
					}
				}
			}
		}
	}
}

// TestShardedAggregationStreaming pins the router's streaming
// semantics: rows offered out of id order — as a PS barrier would
// deliver them — reduce in ascending-id order; a dirty reused output
// buffer never leaks into the result; and the zero rowsHint path grows
// the column-major block through restrides without perturbing a bit.
func TestShardedAggregationStreaming(t *testing.T) {
	const (
		d = 700
		n = 100
	)
	r := randx.New(43)
	vecs := randomVecs(r, n, d)
	views, _ := encodeViews(t, "dense", vecs, 7)

	rule := TrimmedMean{Beta: 0.2}
	want, _ := AggregatePayloads(rule, views) // member order = ascending id

	dst := make([]float64, d)
	for i := range dst {
		dst[i] = 1e30 // dirt that must be fully overwritten
	}
	sa, ok := newShardTree(rule, d, 4, 0, false) // rowsHint 0 forces block growth
	if !ok {
		t.Fatal("newShardTree: trimmed mean must be shardable")
	}
	perm := randx.Perm(randx.New(9), n)
	for _, id := range perm {
		sa.offer(id, views[id], 1)
	}
	got := sa.finalize(dst)
	assertBitIdentical(t, "streamed/shuffled", got, want)
	if sa.peak.Load() <= 0 {
		t.Fatalf("peak shard bytes %d after a dense round", sa.peak.Load())
	}
}

// TestShardedAggregationMixedRows streams sparse and dense rows into
// the same tree — half the members upload topk payloads, half dense —
// so the per-row cursor merge against the column-major block is
// exercised directly.
func TestShardedAggregationMixedRows(t *testing.T) {
	const (
		d = 700
		n = 12
	)
	r := randx.New(47)
	vecs := randomVecs(r, n, d)
	sparseViews, _ := encodeViews(t, "topk:0.1", vecs[:n/2], 3)
	denseViews, _ := encodeViews(t, "dense", vecs[n/2:], 3)
	views := append(append([]compress.Payload{}, sparseViews...), denseViews...)

	for _, rule := range []Rule{Mean{}, TrimmedMean{Trim: 2}, CoordinateMedian{}} {
		want, _ := AggregatePayloads(rule, views)
		res := Run(Request{Rule: rule, Views: views, Shards: 3})
		if !res.Sharded {
			t.Fatalf("%s: expected the sharded path", rule.Name())
		}
		assertBitIdentical(t, "mixed/"+rule.Name(), res.Out, want)
	}
}

// TestShardedAggregationMemoryBound measures the memory contract: the
// peak per-shard accumulator stays within a small constant of the
// K·d/S block bound for dense rows, and an all-topk round allocates
// only the support — far below the dense bound — never the block.
func TestShardedAggregationMemoryBound(t *testing.T) {
	const (
		d      = 4096
		n      = 50
		shards = 8
	)
	r := randx.New(53)
	vecs := randomVecs(r, n, d)
	width := (d + shards - 1) / shards
	denseBound := int64(8 * n * width) // the K·d/S block

	dense, _ := encodeViews(t, "dense", vecs, 11)
	res := Run(Request{Rule: TrimmedMean{Beta: 0.2}, Views: dense, Shards: shards})
	if !res.Sharded {
		t.Fatal("expected the sharded path")
	}
	if peak := res.PeakBytes; peak > 2*denseBound {
		t.Fatalf("dense peak %d bytes exceeds 2× the K·d/S bound %d", peak, denseBound)
	}

	sparse, _ := encodeViews(t, "topk:0.01", vecs, 11)
	res = Run(Request{Rule: TrimmedMean{Beta: 0.2}, Views: sparse, Shards: shards})
	if !res.Sharded {
		t.Fatal("expected the sharded path")
	}
	if peak := res.PeakBytes; peak <= 0 || peak > denseBound/4 {
		t.Fatalf("topk peak %d bytes not support-sized (dense bound %d)", peak, denseBound)
	}
}

// TestShardedAggregationDispatchEscapeHatches pins the fallback edges:
// NoFuse hides the sharded path along with the fused one, a
// single-shard request is the unsharded path, and the loss rules (no
// oracle at this layer) fall back through their geometry rule.
func TestShardedAggregationDispatchEscapeHatches(t *testing.T) {
	const d = 128
	r := randx.New(61)
	vecs := randomVecs(r, 5, d)
	views, _ := encodeViews(t, "topk:0.25", vecs, 17)

	if ShardableRule(NoFuse{TrimmedMean{Beta: 0.2}}) {
		t.Fatal("NoFuse must hide the sharded path")
	}
	res := Run(Request{Rule: NoFuse{TrimmedMean{Beta: 0.2}}, Views: views, Shards: 4})
	if res.Sharded || res.Fused {
		t.Fatal("NoFuse: expected the unsharded densify-first fallback")
	}
	want, _ := AggregatePayloads(NoFuse{TrimmedMean{Beta: 0.2}}, views)
	assertBitIdentical(t, "nofuse", res.Out, want)

	if _, ok := newShardTree(Mean{}, d, 1, 5, false); ok {
		t.Fatal("a single shard must fall back to the unsharded path")
	}
	res = Run(Request{Rule: Mean{}, Views: views, Shards: 1})
	if res.Sharded || !res.Fused {
		t.Fatal("shards=1: expected the fused unsharded path")
	}
	want, _ = AggregatePayloads(Mean{}, views)
	assertBitIdentical(t, "oneshard", res.Out, want)
}
