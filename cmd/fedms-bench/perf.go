package main

// perf.go implements `fedms-bench -exp perf`: a self-contained
// micro-benchmark pass over the hot paths this repo optimizes — the
// aggregation rules (serial vs coordinate-parallel), the wire encoder
// (fresh vs pooled buffers), and the full training round — emitting a
// machine-readable BENCH_fedms.json so the perf trajectory is diffable
// across PRs (see EXPERIMENTS.md "Performance").

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"fedms"
	"fedms/internal/aggregate"
	"fedms/internal/compress"
	"fedms/internal/nn"
	"fedms/internal/randx"
	"fedms/internal/tensor"
	"fedms/internal/transport"
)

// BenchSchema versions the BENCH_fedms.json layout. v2 added the gemm
// and train_step sections (local-SGD hot path); v3 added the codec
// section (model encode/decode and bytes per frame); v4 added the
// fused_aggregate section (payload-view aggregation vs densify-first,
// with the peak accumulator footprint per entry); v5 added the
// loss_rule section (FedGreed/LossCluster through the oracle dispatch
// vs their geometry-only fallback); v6 added the scale section (the
// cheap prefix of the `-exp scale` rounds/sec-vs-K curve through the
// two-tier shard tree, with peak per-shard accumulator bytes); v7
// added the async_round section (the weighted aggregation kernels the
// bounded-staleness admission path threads stale weights through, plus
// engine rounds in sync, fresh-async and stale-async regimes); v8 added
// the ingest section (the hello prefilter verdict on valid and junk
// headers, the bounded oversize-claim rejection path through
// DecodeBounded, and hellos/sec admitted on a real loopback listener
// with a junk connection interleaved per hello).
const BenchSchema = "fedms-bench/perf/v8"

// BenchEntry is one measured operation.
type BenchEntry struct {
	// Name identifies the operation (e.g. "aggregate/trimmed_mean").
	Name string `json:"name"`
	// Dim is the model dimension d (0 when not applicable).
	Dim int `json:"d,omitempty"`
	// Inputs is the number of aggregated vectors n — or, for the
	// train_step entries, the batch size (0 when n/a).
	Inputs int `json:"n,omitempty"`
	// Workers is the parallelism knob (0 = serial path).
	Workers int `json:"workers,omitempty"`
	// Shape describes GEMM entries as "MxNxK" (empty when n/a).
	Shape string `json:"shape,omitempty"`
	// FrameBytes is the encoded payload size for codec entries (0 when
	// n/a) — the per-upload wire cost the codec buys.
	FrameBytes int `json:"frame_bytes,omitempty"`
	// AccBytes is the peak accumulator/scratch footprint of a
	// fused_aggregate entry (0 when n/a): the output vector plus the
	// per-worker gather scratch for the fused path, or the n densified
	// input vectors plus the output for the densify-first fallback.
	AccBytes int `json:"acc_bytes,omitempty"`
	// Iters is how many operations the measurement averaged over.
	Iters int `json:"iters"`
	// NsPerOp, AllocsPerOp and BytesPerOp are per-operation averages.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// RoundBench reports end-to-end round wall-clock for a small federated
// run.
type RoundBench struct {
	Clients    int     `json:"clients"`
	Servers    int     `json:"servers"`
	Dim        int     `json:"d"`
	Rounds     int     `json:"rounds"`
	NsPerRound float64 `json:"ns_per_round"`
}

// BenchReport is the root of BENCH_fedms.json.
type BenchReport struct {
	Schema     string       `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Quick      bool         `json:"quick"`
	Seed       uint64       `json:"seed"`
	Aggregate  []BenchEntry `json:"aggregate"`
	Transport  []BenchEntry `json:"transport"`
	Gemm       []BenchEntry `json:"gemm,omitempty"`
	TrainStep  []BenchEntry `json:"train_step,omitempty"`
	Codec      []BenchEntry `json:"codec,omitempty"`
	// FusedAggregate compares aggregating codec payload views directly
	// (the fused PayloadRule path) against densify-then-aggregate over
	// the same views, at the paper's sparse-upload operating point.
	FusedAggregate []BenchEntry `json:"fused_aggregate,omitempty"`
	// LossRule measures the loss-oracle defenses: FedGreed and
	// LossCluster through AggregateWithOracle with a synthetic O(d)
	// oracle (so the numbers track the rules' own ordering and
	// prefix-averaging cost, not model forward passes), and their
	// geometry-only fallback when no oracle is configured.
	LossRule []BenchEntry `json:"loss_rule,omitempty"`
	// Scale measures simulated aggregation rounds streamed through the
	// two-tier shard tree (aggregate.Run with Shards set) at growing client counts
	// K: Inputs=K, Workers=shards, AccBytes the peak per-shard
	// accumulator. The full curve (K out to 100k, participation
	// ablation, distributed smoke point) lives in `-exp scale`; this
	// section is the cheap prefix so bench-diff gates regressions.
	Scale []BenchEntry `json:"scale,omitempty"`
	// AsyncRound measures the bounded-staleness round machinery: the
	// weighted aggregation kernels (the async admission path threads
	// w(s)=1/(1+s) staleness weights through the same rules the sync
	// barrier runs unweighted) and full engine rounds in three regimes —
	// the sync barrier baseline, an async window wide enough that every
	// upload lands fresh (the bit-identical regime), and a narrow window
	// that pushes uploads through stale admission and deferral every
	// round.
	AsyncRound []BenchEntry `json:"async_round,omitempty"`
	// Ingest measures the pre-auth accept path: the zero-allocation
	// hello prefilter (valid header, junk preamble, forged length
	// claim), the bounded Decode rejection of an oversize-but-valid
	// frame (chunked discard + CRC, never materializing the body), and
	// end-to-end hello admission over a real loopback listener with a
	// junk connection interleaved per hello — the shape the chaos flood
	// gate runs at scale.
	Ingest []BenchEntry `json:"ingest,omitempty"`
	Round  RoundBench   `json:"round"`
}

// measure averages fn over enough iterations to fill minTime, reporting
// ns, allocs and bytes per op. One warm-up call precedes timing.
func measure(minTime time.Duration, fn func()) (iters int, nsPerOp, allocsPerOp, bytesPerOp float64) {
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var elapsed time.Duration
	for elapsed < minTime {
		fn()
		iters++
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&m1)
	n := float64(iters)
	return iters, float64(elapsed.Nanoseconds()) / n,
		float64(m1.Mallocs-m0.Mallocs) / n,
		float64(m1.TotalAlloc-m0.TotalAlloc) / n
}

// benchVecs builds n deterministic pseudo-model vectors of dimension d.
func benchVecs(seed uint64, n, d int) [][]float64 {
	r := randx.New(seed)
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, d)
		randx.Normal(r, vecs[i], 0, 1)
	}
	return vecs
}

// discardConn is a net.Conn that swallows writes, isolating the frame
// encoder from real network I/O in the transport benchmarks.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (discardConn) Close() error                     { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }

// runPerf executes the benchmark pass, writes the JSON report to path,
// and returns it (so -diffbase can compare without re-reading the file).
func runPerf(out io.Writer, path string, seed uint64, quick bool) (*BenchReport, error) {
	minTime := 200 * time.Millisecond
	dims := []int{10_000, 100_000}
	if quick {
		minTime = 2 * time.Millisecond
		dims = []int{2_048}
	}
	const n = 10
	report := &BenchReport{
		Schema:     BenchSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Seed:       seed,
	}

	add := func(list *[]BenchEntry, name string, d, inputs, workers int, fn func()) {
		iters, ns, allocs, bytes := measure(minTime, fn)
		e := BenchEntry{
			Name: name, Dim: d, Inputs: inputs, Workers: workers,
			Iters: iters, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes,
		}
		*list = append(*list, e)
		fmt.Fprintf(out, "  %-40s d=%-7d n=%-3d workers=%-2d %12.0f ns/op %8.1f allocs/op\n",
			name, d, inputs, workers, ns, allocs)
	}

	addFramed := func(list *[]BenchEntry, name string, d, frameBytes int, fn func()) {
		iters, ns, allocs, bytes := measure(minTime, fn)
		e := BenchEntry{
			Name: name, Dim: d, FrameBytes: frameBytes,
			Iters: iters, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes,
		}
		*list = append(*list, e)
		fmt.Fprintf(out, "  %-40s d=%-7d frame=%-8dB %12.0f ns/op %8.1f allocs/op\n",
			name, d, frameBytes, ns, allocs)
	}

	addShaped := func(list *[]BenchEntry, name, shape string, workers int, fn func()) {
		iters, ns, allocs, bytes := measure(minTime, fn)
		e := BenchEntry{
			Name: name, Shape: shape, Workers: workers,
			Iters: iters, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes,
		}
		*list = append(*list, e)
		fmt.Fprintf(out, "  %-40s %-14s workers=%-2d %12.0f ns/op %8.1f allocs/op\n",
			name, shape, workers, ns, allocs)
	}

	fmt.Fprintln(out, "Performance pass (aggregate rules):")
	for _, d := range dims {
		vecs := benchVecs(seed, n, d)
		for _, workers := range []int{1, 4} {
			tm := aggregate.TrimmedMean{Beta: 0.2, Workers: workers}
			add(&report.Aggregate, "aggregate/trimmed_mean", d, n, workers,
				func() { tm.Aggregate(vecs) })
			med := aggregate.CoordinateMedian{Workers: workers}
			add(&report.Aggregate, "aggregate/median", d, n, workers,
				func() { med.Aggregate(vecs) })
		}
		mean := aggregate.Mean{}
		add(&report.Aggregate, "aggregate/mean", d, n, 1,
			func() { mean.Aggregate(vecs) })
	}

	fmt.Fprintln(out, "Performance pass (tensor GEMM, sizes of the nn layers):")
	{
		// Shapes mirror the dense and conv layers of internal/nn/models.go:
		// the MLP's fc1 forward and weight-gradient GEMMs, a SmallCNN-style
		// 3x3 conv lowering and a MobileNet-style 1x1 expansion, both over
		// a batch of 8 16x16 feature maps.
		shapes := []struct {
			label   string
			m, n, k int
		}{
			{"dense_fwd", 32, 256, 784},
			{"dense_dw", 784, 256, 32},
			{"conv3x3", 32, 2048, 144},
			{"conv_pointwise", 96, 2048, 16},
		}
		r := randx.New(seed)
		for _, s := range shapes {
			a := make([]float64, s.m*s.k)
			b := make([]float64, s.k*s.n)
			c := make([]float64, s.m*s.n)
			randx.Normal(r, a, 0, 1)
			randx.Normal(r, b, 0, 1)
			shape := fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k)
			addShaped(&report.Gemm, "gemm/"+s.label, shape, 1,
				func() { tensor.Gemm(c, a, b, s.m, s.n, s.k) })
		}
	}

	fmt.Fprintln(out, "Performance pass (train_step, local SGD hot path):")
	{
		r := randx.New(seed ^ 0x7e57)
		sched := nn.ConstantLR(0.05)

		// Dense MLP matching the shapes used by the federated sweeps.
		batch := 32
		if quick {
			batch = 8
		}
		mlp := nn.NewMLP(nn.MLPConfig{In: 784, Hidden: []int{256, 128}, NumClasses: 10, Seed: seed})
		x := tensor.New(batch, 784)
		x.FillNormal(r, 0, 1)
		labels := make([]int, batch)
		for i := range labels {
			labels[i] = r.IntN(10)
		}
		opt := nn.NewSGD(0, 0)
		add(&report.TrainStep, "train_step/mlp", 784, batch, 1, func() {
			mlp.ZeroGrads()
			mlp.TrainBatch(x, labels)
			opt.Step(mlp.Params(), sched.LR(0))
		})

		// MobileNet-style inverted residual block (expand 1x1, depthwise
		// 3x3, project 1x1, batch norm + ReLU6 throughout) with a small
		// classifier head, over 16-channel 16x16 feature maps.
		convBatch := 8
		if quick {
			convBatch = 2
		}
		cr := randx.Split(seed, "bench-conv-block")
		conv := nn.NewNetwork(nn.NewSequential("conv_block",
			nn.NewInvertedResidual("ir", 16, 16, 1, 6, cr),
			nn.NewGlobalAvgPool2D("gap"),
			nn.NewDense("cls", 16, 10, cr),
		), nn.SoftmaxCrossEntropy{})
		cx := tensor.New(convBatch, 16, 16, 16)
		cx.FillNormal(r, 0, 1)
		clabels := make([]int, convBatch)
		for i := range clabels {
			clabels[i] = r.IntN(10)
		}
		copt := nn.NewSGD(0, 0)
		add(&report.TrainStep, "train_step/conv_block", 16*16*16, convBatch, 1, func() {
			conv.ZeroGrads()
			conv.TrainBatch(cx, clabels)
			copt.Step(conv.Params(), sched.LR(0))
		})
	}

	fmt.Fprintln(out, "Performance pass (fused payload aggregation, topk:0.01 uploads):")
	{
		addFused := func(name string, d, inputs, accBytes int, fn func()) {
			iters, ns, allocs, bytes := measure(minTime, fn)
			report.FusedAggregate = append(report.FusedAggregate, BenchEntry{
				Name: name, Dim: d, Inputs: inputs, Workers: 1, AccBytes: accBytes,
				Iters: iters, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes,
			})
			fmt.Fprintf(out, "  %-40s d=%-7d n=%-3d acc=%-9dB %12.0f ns/op %8.1f allocs/op\n",
				name, d, inputs, accBytes, ns, allocs)
		}
		sp, err := compress.ParseSpec("topk:0.01")
		if err != nil {
			return nil, err
		}
		for _, d := range dims {
			vecs := benchVecs(seed^0xf05ed, n, d)
			views := make([]compress.Payload, n)
			for i, v := range vecs {
				c, err := sp.NewCodec(randx.Derive(seed, fmt.Sprintf("bench-fused/%d", i)))
				if err != nil {
					return nil, err
				}
				enc, buf := c.AppendEncode(nil, v)
				view, err := compress.ParsePayload(enc, buf)
				if err != nil {
					return nil, err
				}
				views[i] = view
			}
			// Peak accumulator footprints: the fused mean touches one dense
			// accumulator; the fused column-gather holds the output plus one
			// worker's tile scratch (entry lists + column + cursors); the
			// densify-first fallback materializes all n inputs plus the
			// output.
			const tile = 256
			mean := aggregate.Mean{}
			tm := aggregate.TrimmedMean{Beta: 0.2, Workers: 1}
			m := tm.TrimCount(n)
			fusedMeanAcc := 8 * d
			fusedGatherAcc := 8*d + 8*n + 16*m + 4*tile + 12*tile*n + 8*n
			densifyAcc := 8 * d * (n + 1)
			addFused("fused_aggregate/mean/fused", d, n, fusedMeanAcc, func() {
				aggregate.AggregatePayloads(mean, views)
			})
			addFused("fused_aggregate/mean/densify", d, n, densifyAcc, func() {
				aggregate.AggregatePayloads(aggregate.NoFuse{Rule: mean}, views)
			})
			addFused("fused_aggregate/trimmed_mean/fused", d, n, fusedGatherAcc, func() {
				aggregate.AggregatePayloads(tm, views)
			})
			addFused("fused_aggregate/trimmed_mean/densify", d, n, densifyAcc, func() {
				aggregate.AggregatePayloads(aggregate.NoFuse{Rule: tm}, views)
			})
		}
	}

	fmt.Fprintln(out, "Performance pass (loss-oracle rules, synthetic O(d) oracle):")
	{
		for _, d := range dims {
			vecs := benchVecs(seed^0x105e, n, d)
			// Synthetic oracle: squared distance to a fixed target. Cheap
			// and deterministic, so the entries measure the rules' own
			// ordering, prefix-averaging and dispatch overhead.
			target := benchVecs(seed^0x7a26e7, 1, d)[0]
			eval := func(m []float64) float64 {
				s := 0.0
				for i, v := range m {
					dv := v - target[i]
					s += dv * dv
				}
				return s
			}
			for _, lr := range []aggregate.Rule{aggregate.FedGreed{}, aggregate.LossCluster{}} {
				add(&report.LossRule, "loss_rule/"+lr.Name()+"/oracle", d, n, 1, func() {
					aggregate.AggregateWithOracle(lr, vecs, eval)
				})
				add(&report.LossRule, "loss_rule/"+lr.Name()+"/fallback", d, n, 1, func() {
					aggregate.AggregateWithOracle(lr, vecs, nil)
				})
			}
		}
	}

	fmt.Fprintln(out, "Performance pass (model codecs):")
	for _, d := range dims {
		vec := benchVecs(seed^0xc0dec, 1, d)[0]
		dst := make([]float64, d)
		for _, spec := range []string{"dense", "topk:0.1", "q8", "ef+topk:0.1"} {
			sp, err := compress.ParseSpec(spec)
			if err != nil {
				return nil, err
			}
			c, err := sp.NewCodec(seed)
			if err != nil {
				return nil, err
			}
			var buf []byte
			var enc compress.Encoding
			enc, buf = c.AppendEncode(buf[:0], vec)
			frameBytes := len(buf)
			addFramed(&report.Codec, "codec/encode/"+spec, d, frameBytes, func() {
				enc, buf = c.AppendEncode(buf[:0], vec)
			})
			addFramed(&report.Codec, "codec/decode/"+spec, d, frameBytes, func() {
				if err := compress.DecodePayloadInto(dst, enc, buf); err != nil {
					panic(err)
				}
			})
		}
	}

	fmt.Fprintln(out, "Performance pass (transport encode):")
	{
		d := dims[len(dims)-1]
		msg := &transport.Message{Type: transport.TypeGlobalModel, Round: 7, Sender: 3,
			Vec: benchVecs(seed, 1, d)[0]}
		add(&report.Transport, "transport/encode", d, 0, 0,
			func() { transport.Encode(msg) })
		conn := transport.NewConn(discardConn{})
		add(&report.Transport, "transport/conn_send", d, 0, 0,
			func() {
				if err := conn.Send(msg); err != nil {
					panic(err)
				}
			})
	}

	fmt.Fprintln(out, "Performance pass (sharded scale, cheap prefix of -exp scale):")
	{
		entries, err := scaleEntries(out, seed, quick)
		if err != nil {
			return nil, fmt.Errorf("scale benchmark: %w", err)
		}
		report.Scale = entries
	}

	fmt.Fprintln(out, "Performance pass (async bounded-staleness rounds):")
	{
		// Weighted kernels: the async admission path threads per-upload
		// staleness weights through the same rules the sync barrier runs
		// unweighted; these entries price that threading against the
		// unweighted aggregate section above.
		for _, d := range dims {
			vecs := benchVecs(seed^0xa57c, n, d)
			weights := make([]float64, n)
			for i := range weights {
				weights[i] = 1.0 / float64(1+i%3) // w(s) = 1/(1+s), s cycling 0..2
			}
			dst := make([]float64, d)
			wtm := aggregate.TrimmedMean{Beta: 0.2, Workers: 1}
			add(&report.AsyncRound, "async_round/weighted/trimmed_mean", d, n, 1, func() {
				aggregate.AggregateWeighted(wtm, dst, vecs, weights)
			})
			wmed := aggregate.CoordinateMedian{Workers: 1}
			add(&report.AsyncRound, "async_round/weighted/median", d, n, 1, func() {
				aggregate.AggregateWeighted(wmed, dst, vecs, weights)
			})
		}

		// Engine rounds under the virtual clock. The stale regime's
		// window is a quarter of the latency scale, so every round pushes
		// uploads through stale admission, down-weighting and deferral.
		mk := func(name string, async bool, window time.Duration, staleness int) error {
			cfg := fedms.Config{
				Clients: 12, Servers: 3, NumByzantine: 1,
				Rounds: 8, LocalSteps: 1, TrimBeta: 0.2,
				Attack:    fedms.NoiseAttack{},
				Dataset:   fedms.DatasetSpec{Kind: fedms.DatasetBlobs, Samples: 1200},
				Model:     fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{32}},
				Seed:      seed,
				EvalEvery: -1,
				Async:     async, Window: window, Staleness: staleness,
			}
			if quick {
				cfg.Clients = 6
				cfg.Dataset.Samples = 600
			}
			eng, err := fedms.BuildEngine(cfg)
			if err != nil {
				return err
			}
			add(&report.AsyncRound, name, eng.Dim(), cfg.Clients, 0, func() { eng.RunRound() })
			return nil
		}
		if err := mk("async_round/sync_baseline", false, 0, 0); err != nil {
			return nil, fmt.Errorf("async round benchmark: %w", err)
		}
		if err := mk("async_round/fresh", true, time.Second, 2); err != nil {
			return nil, fmt.Errorf("async round benchmark: %w", err)
		}
		if err := mk("async_round/stale", true, time.Second/4, 2); err != nil {
			return nil, fmt.Errorf("async round benchmark: %w", err)
		}
	}

	fmt.Fprintln(out, "Performance pass (pre-auth ingest path):")
	{
		helloFrame := transport.Encode(&transport.Message{
			Type: transport.TypeHello, Sender: 7, Flag: 7, Text: "enc:v2"})
		junk := []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")
		forged := transport.Encode(&transport.Message{
			Type: transport.TypeHello, Flag: 1, Vec: []float64{1}})
		binary.LittleEndian.PutUint32(forged[20:], uint32(transport.MaxVecLen))

		add(&report.Ingest, "ingest/prefilter_hello_accept", 0, 0, 0, func() {
			if _, err := transport.HelloPrefilter(helloFrame, transport.HelloMaxBodyLen); err != nil {
				panic(err)
			}
		})
		add(&report.Ingest, "ingest/prefilter_reject_junk", 0, 0, 0, func() {
			if _, err := transport.HelloPrefilter(junk, transport.HelloMaxBodyLen); err == nil {
				panic("junk passed the prefilter")
			}
		})
		add(&report.Ingest, "ingest/prefilter_reject_forged_claim", 0, 0, 0, func() {
			if _, err := transport.HelloPrefilter(forged, transport.HelloMaxBodyLen); err == nil {
				panic("forged length claim passed the prefilter")
			}
		})

		// An oversize-but-well-formed frame: claims within the protocol
		// maxima but over the hello cap, so DecodeBounded must discard
		// the body in chunks and CRC-verify it without ever allocating
		// the claimed size.
		oversize := transport.Encode(&transport.Message{
			Type: transport.TypeHello, Flag: 1,
			Vec: benchVecs(seed^0x16e57, 1, 8192)[0]})
		addFramed(&report.Ingest, "ingest/decode_oversize_reject", 8192, len(oversize), func() {
			if _, err := transport.DecodeBounded(bytes.NewReader(oversize), transport.HelloMaxBodyLen); !errors.Is(err, transport.ErrTooLarge) {
				panic(fmt.Sprintf("oversize frame: got %v, want ErrTooLarge", err))
			}
		})

		// Hellos admitted per op over a real listener, with one junk
		// connection interleaved per hello — the accept path the chaos
		// flood gate exercises at 10k connections.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("ingest benchmark: %w", err)
		}
		go func() {
			for {
				raw, err := ln.Accept()
				if err != nil {
					return
				}
				go func(raw net.Conn) {
					defer raw.Close()
					c := transport.NewConn(raw)
					c.Timeout = time.Second
					c.SetMaxBodyLen(transport.HelloMaxBodyLen)
					if err := c.PrefilterHello(transport.HelloMaxBodyLen); err != nil {
						return
					}
					_, _ = c.Recv()
				}(raw)
			}
		}()
		dial := func(payload []byte) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				panic(err)
			}
			_, _ = conn.Write(payload)
			// Wait for the server-side close so the op measures
			// admission, not just the dial.
			_, _ = conn.Read(make([]byte, 1))
			conn.Close()
		}
		addFramed(&report.Ingest, "ingest/loopback_hello_junk_storm", 0, len(helloFrame), func() {
			dial(junk)
			dial(helloFrame)
		})
		ln.Close()
	}

	fmt.Fprintln(out, "Performance pass (round wall-clock):")
	{
		cfg := fedms.Config{
			Clients: 20, Servers: 5, NumByzantine: 1,
			Rounds: 4, LocalSteps: 2, TrimBeta: 0.2,
			Attack:    fedms.NoiseAttack{},
			Dataset:   fedms.DatasetSpec{Kind: fedms.DatasetBlobs, Samples: 4000},
			Model:     fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{64}},
			Seed:      seed,
			EvalEvery: -1,
		}
		if quick {
			cfg.Clients, cfg.Servers, cfg.Rounds = 6, 3, 2
			cfg.Dataset.Samples = 600
		}
		res, err := fedms.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("round benchmark: %w", err)
		}
		var total time.Duration
		for _, st := range res.Stats {
			total += st.Elapsed
		}
		report.Round = RoundBench{
			Clients: cfg.Clients, Servers: cfg.Servers,
			Dim:    res.Engine.Dim(),
			Rounds: len(res.Stats),
			NsPerRound: float64(total.Nanoseconds()) /
				float64(len(res.Stats)),
		}
		fmt.Fprintf(out, "  %-40s K=%d P=%d d=%d %12.0f ns/round\n",
			"round/fedms", cfg.Clients, cfg.Servers, report.Round.Dim, report.Round.NsPerRound)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return report, nil
}
