package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/obs"
	"fedms/internal/randx"
	"fedms/internal/sched"
	"fedms/internal/spill"
	"fedms/internal/tensor"
)

// RoundStats records one training round's outcome.
type RoundStats struct {
	// Round is the 0-based round index.
	Round int
	// TrainLoss is the mean local training loss across clients.
	TrainLoss float64
	// TestLoss and TestAcc are averaged over EvalClients client models;
	// NaN-free only on evaluation rounds (Evaluated reports that).
	TestLoss  float64
	TestAcc   float64
	Evaluated bool
	// UploadFloats counts float64 values uploaded by clients this round
	// (the paper's communication-cost measure: K·d sparse, K·P·d full).
	UploadFloats int
	// DownloadFloats counts float64 values disseminated to clients.
	DownloadFloats int
	// UploadBytes counts the wire bytes of the round's uploads: 8 per
	// float when dense, the encoded payload size under an UploadCodec —
	// the paper's K·d vs K·P·d measure in bytes.
	UploadBytes int
	// DownloadBytes counts the wire bytes of the round's disseminated
	// models, analogously.
	DownloadBytes int
	// ModelSpread is the max L2 distance between any client's filtered
	// model and the benign-server mean — a diagnostic of how far the
	// filter let Byzantine influence leak.
	ModelSpread float64
	// Admission accounting: FreshUploads arrived within their origin
	// round's window (under the sync barrier that is every upload),
	// StaleUploads joined a later round's aggregation with a staleness
	// down-weight, and DroppedUploads exceeded the staleness bound — the
	// last two are always zero in sync mode.
	FreshUploads   int
	StaleUploads   int
	DroppedUploads int
	// SpillDepth and SpillBytes snapshot the deferred-upload buffer at
	// window close: records still in flight toward later rounds and
	// their memory+disk footprint.
	SpillDepth int
	SpillBytes int
	// Elapsed is the wall-clock time of the round.
	Elapsed time.Duration
}

// Engine runs the synchronized Fed-MS protocol of Algorithm 1.
type Engine struct {
	cfg      Config
	learners []Learner
	dim      int

	// history[i] holds server i's honest aggregates, one per completed
	// round; Byzantine tampering never enters this history (it feeds
	// the attack's adaptive knowledge instead). Only Byzantine servers
	// retain history — they are its only readers — so steady-state
	// memory is O(T·B·d), not O(T·P·d).
	history [][][]float64
	// lastAgg[i] is server i's most recent aggregate, reused when the
	// sparse upload assigns it no clients in a round.
	lastAgg [][]float64
	// aggBufs[i] is benign server i's round-persistent aggregation
	// output buffer: nothing retains a benign aggregate past its round
	// (history skips benign servers and the idle-server path copies), so
	// the rules write in place instead of allocating d floats per server
	// per round. Byzantine servers aggregate into fresh vectors, which
	// the history retains.
	aggBufs [][]float64
	// filterBufs[s] is received set s's round-persistent filter output
	// buffer (one set, or one per client under an equivocating attack —
	// see disseminate); SetParams copies into each learner, so the
	// filtered vector never outlives the round. filterViews[s] is the
	// payload-view slice the set's models are wrapped in, emptied after
	// each filter.
	filterBufs  [][]float64
	filterViews [][]compress.Payload

	// codecs[k] is client k's upload codec instance (nil slice when the
	// upload codec is dense). Stateful: error-feedback residuals persist
	// across rounds, exactly like the distributed clients'.
	codecs []compress.Codec
	// encBufs[k] is client k's encode scratch. Per client, not shared:
	// the aggregation stage holds payload views that alias these
	// buffers until every server's aggregate is computed, so one
	// client's encode must not clobber another's payload. Reused across
	// rounds (a view never outlives its round).
	encBufs [][]byte

	// oracle is the holdout-loss eval handed to LossRule dispatch — a
	// mutex-serialized wrapper of cfg.LossOracle, because the filter
	// stage calls it from the concurrent per-set pool. The eval is
	// a pure function, so serialization order cannot change any
	// result. nil when no oracle is configured.
	oracle aggregate.LossEval

	// sc is the shared round-lifecycle state machine: the engine asks
	// it for the round cursor and every async admission decision, the
	// same Scheduler the distributed PS drives.
	sc *sched.Scheduler
	// spill buffers async uploads still in flight toward a later
	// round, overflowing to disk past cfg.SpillMem. nil in sync mode.
	spill *spill.Buffer
	// encs[k] is the codec tag of client k's latest upload, kept so
	// deferred payload bytes can be re-parsed when they arrive. Only
	// maintained in async mode.
	encs []compress.Encoding

	// om mirrors round progress into the configured registry; obsOn
	// (any of Obs, TraceSink, Logger) gates the extra per-stage clock
	// reads so a fully disabled engine keeps the exact
	// pre-observability timing profile.
	om    *engineMetrics
	obsOn bool
}

// NewEngine validates cfg, aligns every learner to the same initial
// model (the paper's w_0 shared initialization), and returns a ready
// engine. learners must have length cfg.Clients.
func NewEngine(cfg Config, learners []Learner) (*Engine, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if len(learners) != cfg.Clients {
		return nil, fmt.Errorf("core: %d learners for %d clients", len(learners), cfg.Clients)
	}
	dim := learners[0].NumParams()
	for i, l := range learners {
		if l.NumParams() != dim {
			return nil, fmt.Errorf("core: learner %d has %d params, want %d", i, l.NumParams(), dim)
		}
	}
	// Shared initialization w_0 taken from client 0.
	w0 := learners[0].Params()
	for _, l := range learners[1:] {
		l.SetParams(w0)
	}
	// Thread the worker bound into the coordinate-parallel aggregation
	// rules. Rule outputs are bit-identical across worker counts, so
	// this never perturbs results — only wall-clock.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg.Filter = aggregate.WithWorkers(cfg.Filter, workers)
	cfg.ServerFilter = aggregate.WithWorkers(cfg.ServerFilter, workers)
	// Local training shares the same budget: clients train concurrently
	// (forEachClient), so each learner gets an equal slice of the pool
	// for its GEMM kernels. Learners with an explicit setting keep it.
	perLearner := workers / len(learners)
	if perLearner < 1 {
		perLearner = 1
	}
	for _, l := range learners {
		if wl, ok := l.(workerLearner); ok && wl.Workers() == 0 {
			wl.SetWorkers(perLearner)
		}
	}
	lastAgg := make([][]float64, cfg.Servers)
	for i := range lastAgg {
		lastAgg[i] = append([]float64(nil), w0...)
	}
	var codecs []compress.Codec
	if !cfg.UploadCodec.IsDense() {
		codecs = make([]compress.Codec, cfg.Clients)
		for k := range codecs {
			c, err := cfg.UploadCodec.NewCodec(ClientCodecSeed(cfg.Seed, k))
			if err != nil {
				return nil, fmt.Errorf("core: UploadCodec: %w", err)
			}
			codecs[k] = c
		}
	}
	var oracle aggregate.LossEval
	if cfg.LossOracle != nil {
		inner := cfg.LossOracle
		var mu sync.Mutex
		oracle = func(m []float64) float64 {
			mu.Lock()
			defer mu.Unlock()
			return inner(m)
		}
	}
	scfg := sched.Config{Mode: sched.Sync, Rounds: cfg.Rounds}
	if cfg.Async {
		scfg.Mode, scfg.Window, scfg.Staleness = sched.Async, cfg.Window, cfg.Staleness
	}
	sc, err := sched.New(scfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var spillBuf *spill.Buffer
	var encs []compress.Encoding
	if cfg.Async {
		spillBuf = spill.New(spill.Config{MemLimit: cfg.SpillMem, Dir: cfg.SpillDir})
		encs = make([]compress.Encoding, cfg.Clients)
	}
	return &Engine{
		cfg:      cfg,
		learners: learners,
		dim:      dim,
		history:  make([][][]float64, cfg.Servers),
		lastAgg:  lastAgg,
		codecs:   codecs,
		oracle:   oracle,
		sc:       sc,
		spill:    spillBuf,
		encs:     encs,
		om:       newEngineMetrics(cfg.Obs, cfg.ServerFilter.Name()),
		obsOn:    cfg.Obs != nil || cfg.TraceSink != nil || cfg.Logger != nil,
	}, nil
}

// ClientCodecSeed derives the seed for client k's upload codec. The
// engine and the distributed runtime both use it, so stochastic codecs
// sample identical index sets in either runtime.
func ClientCodecSeed(seed uint64, client int) uint64 {
	return randx.Derive(seed, fmt.Sprintf("codec/c%d", client))
}

// Config returns the engine's validated configuration.
func (e *Engine) Config() Config { return e.cfg }

// Dim returns the flat model dimension d.
func (e *Engine) Dim() int { return e.dim }

// Learners returns the client learners (index = client id).
func (e *Engine) Learners() []Learner { return e.learners }

// Run executes cfg.Rounds rounds and returns their statistics.
func (e *Engine) Run() []RoundStats {
	stats := make([]RoundStats, 0, e.cfg.Rounds)
	for t := 0; t < e.cfg.Rounds; t++ {
		stats = append(stats, e.RunRound())
	}
	return stats
}

// RunRound executes one full round: local training, model aggregation
// (with the configured upload strategy), Byzantine dissemination, and
// the client-side model filter. The aggregation stage admits whatever
// the round's lifecycle delivered — see arrivals.
func (e *Engine) RunRound() RoundStats {
	t := e.sc.Round()
	start := time.Now()
	st := RoundStats{Round: t}

	// Per-stage timings (train / upload+aggregate / disseminate+filter /
	// eval) for the stage histograms and the round trace. mark advances
	// at each stage boundary; all reads are gated on obsOn.
	var tTrain, tUpload, tFilter, tEval time.Duration
	var mark time.Time
	if e.obsOn {
		mark = start
	}

	// Byzantine clients' upload attacks may reference the model the
	// round started from; snapshot it before training.
	var startParams map[int][]float64
	if e.cfg.NumByzantineClients > 0 {
		startParams = make(map[int][]float64, e.cfg.NumByzantineClients)
		for _, k := range e.cfg.ByzantineClientIDs {
			startParams[k] = e.learners[k].Params()
		}
	}

	// ---- Local training stage (Algorithm 1, lines 8-10) ----
	active := e.activeClients(t)
	losses := e.trainClients(t, active)
	for _, l := range losses {
		st.TrainLoss += l
	}
	st.TrainLoss /= float64(len(losses))
	if e.obsOn {
		now := time.Now()
		tTrain, mark = now.Sub(mark), now
	}

	// Snapshot the uploaded local models w_{k,t,E} of active clients.
	uploads := make([][]float64, e.cfg.Clients)
	for _, k := range active {
		uploads[k] = e.learners[k].Params()
	}

	// Byzantine clients replace their honest upload with a tampered
	// one (their local training state is untouched — what they *send*
	// is the lie).
	for _, k := range e.cfg.ByzantineClientIDs {
		if uploads[k] == nil {
			continue // inactive this round
		}
		ctx := &attack.UploadContext{
			Round:  t,
			Client: k,
			Params: uploads[k],
			Global: startParams[k],
			RNG:    UploadAttackRNG(e.cfg.Seed, t, k),
		}
		uploads[k] = e.cfg.ClientAttack.TamperUpload(ctx)
	}

	// The upload codec models the lossy wire: encode once per client per
	// round (exactly like a distributed client, so error-feedback state
	// advances identically) and hand the servers payload *views* of the
	// encoded bytes — the same views a distributed PS parses off the
	// wire, so fused rules aggregate straight out of the codec payloads
	// without a per-client densify. Dense uploads wrap without copying.
	uploadBytes := make([]int, e.cfg.Clients)
	views := make([]compress.Payload, e.cfg.Clients)
	if e.codecs != nil {
		if e.encBufs == nil {
			e.encBufs = make([][]byte, e.cfg.Clients)
		}
		for _, k := range active {
			var enc compress.Encoding
			enc, e.encBufs[k] = e.codecs[k].AppendEncode(e.encBufs[k][:0], uploads[k])
			v, err := compress.ParsePayload(enc, e.encBufs[k])
			if err != nil {
				panic(fmt.Sprintf("core: upload codec self-parse: %v", err))
			}
			views[k] = v
			uploadBytes[k] = len(e.encBufs[k])
			if e.encs != nil {
				e.encs[k] = enc
			}
		}
	} else {
		for _, k := range active {
			views[k] = compress.DensePayload(uploads[k])
			uploadBytes[k] = 8 * e.dim
		}
	}

	// ---- Model aggregation stage (lines 3-4, 11) ----
	// One lifecycle for both modes: each server aggregates the member
	// set its round admitted. Under the sync barrier that is exactly
	// this round's uploads, all fresh; under the async window it is the
	// on-time sends plus spill records due now, stale ones down-weighted
	// before the robust rule. aggregate.Run sees only the set.
	assign := e.uploadAssignment(t, active)
	arrivals := e.arrivals(t, assign, views, uploads, &st)
	aggs := make([][]float64, e.cfg.Servers)
	var aggFusedN, aggFallbackN, aggShardedN, oracleServerN int
	var shardPeak int64
	if e.aggBufs == nil {
		e.aggBufs = make([][]float64, e.cfg.Servers)
	}
	for i, members := range arrivals {
		if len(members) == 0 {
			// Nothing admitted this round: the PS re-disseminates its last
			// aggregate (it has nothing newer). With K >> P this is rare
			// under sparse upload.
			aggs[i] = append([]float64(nil), e.lastAgg[i]...)
		} else {
			// Benign servers aggregate into their round-persistent
			// buffer; Byzantine servers get a fresh vector because the
			// adaptive-adversary history retains theirs.
			benign := !e.cfg.IsByzantine(i)
			req := aggregate.Request{Rule: e.cfg.ServerFilter, Oracle: e.oracle, Shards: e.cfg.Shards}
			req.Views, req.Weights = sched.Members(members)
			if benign {
				req.Dst = e.aggBufs[i]
			}
			res := aggregate.Run(req)
			aggs[i] = res.Out
			if benign {
				e.aggBufs[i] = res.Out
			}
			switch {
			case res.Sharded:
				aggShardedN++
				if res.PeakBytes > shardPeak {
					shardPeak = res.PeakBytes
				}
			case res.Fused:
				aggFusedN++
			default:
				aggFallbackN++
			}
			oracleServerN += res.OracleEvals
		}
		e.lastAgg[i] = aggs[i]
		// Communication is counted at send time (the client pays for the
		// upload whether or not it lands inside a window), so the paper's
		// cost measure is lifecycle-independent.
		st.UploadFloats += len(assign[i]) * e.dim
		for _, k := range assign[i] {
			st.UploadBytes += uploadBytes[k]
		}
	}
	if e.spill != nil {
		st.SpillDepth = e.spill.Len()
		st.SpillBytes = int(e.spill.MemBytes() + e.spill.DiskBytes())
	}
	if e.obsOn {
		now := time.Now()
		tUpload, mark = now.Sub(mark), now
	}

	// ---- Model dissemination + filter stage (lines 5, 12-13) ----
	st.DownloadFloats = e.cfg.Servers * e.cfg.Clients * e.dim
	sets, setOf := e.disseminate(t, aggs)
	benignMean := e.benignMean(aggs)

	// Every client filters the P models it received, and clients that
	// received the same P models get the same filtered model, so the
	// stage filters each distinct set once and then installs each set's
	// output into its clients. Both passes run on the same bounded pool
	// as local training. Every set has at least one client, so the max
	// over sets is the max over clients, and max is order-insensitive,
	// keeping the round deterministic for any worker count.
	downlinkCodec := !e.cfg.DownlinkCodec.IsDense()
	spreads := make([]float64, len(sets))
	setBytes := make([]int, len(sets))
	oracleFilterN := make([]int, len(sets))
	if len(e.filterBufs) != len(sets) {
		e.filterBufs = make([][]float64, len(sets))
		e.filterViews = make([][]compress.Payload, len(sets))
	}
	e.forEachClient(len(sets), func(s int) {
		received := sets[s]
		if downlinkCodec {
			// The downlink codec is a deterministic function of the
			// vector (EF and randk are rejected by Validate), so one
			// roundtrip per set is what each of its clients would decode,
			// and matches the distributed PS encoding the same vector.
			for i := range received {
				v, n, err := e.cfg.DownlinkCodec.EncodeDecode(received[i])
				if err != nil {
					panic(fmt.Sprintf("core: downlink codec: %v", err))
				}
				received[i] = v
				setBytes[s] += n
			}
		} else {
			setBytes[s] = 8 * e.cfg.Servers * e.dim
		}
		views := e.filterViews[s][:0]
		for _, v := range received {
			views = append(views, compress.DensePayload(v))
		}
		res := aggregate.Run(aggregate.Request{Rule: e.cfg.Filter, Views: views, Oracle: e.oracle, Dst: e.filterBufs[s]})
		clear(views) // do not pin this round's models past it
		e.filterViews[s] = views
		e.filterBufs[s] = res.Out // SetParams copies, so the buffer is free next round
		oracleFilterN[s] = res.OracleEvals
		spreads[s] = tensor.VecDist2(res.Out, benignMean)
	})
	e.forEachClient(e.cfg.Clients, func(k int) {
		e.learners[k].SetParams(e.filterBufs[setOf[k]])
	})
	for _, d := range spreads {
		if d > st.ModelSpread {
			st.ModelSpread = d
		}
	}
	for _, s := range setOf {
		st.DownloadBytes += setBytes[s]
	}

	// Append honest aggregates to the adaptive-adversary history. Only
	// Byzantine servers read it (attack.Context.History), so only they
	// retain it — a benign history would grow O(T·d) per server unread
	// and would pin the reused aggregation buffers.
	for _, i := range e.cfg.ByzantineIDs {
		e.history[i] = append(e.history[i], aggs[i])
	}
	if e.obsOn {
		now := time.Now()
		tFilter, mark = now.Sub(mark), now
	}

	// ---- Evaluation ----
	if e.cfg.EvalEvery > 0 && (t%e.cfg.EvalEvery == e.cfg.EvalEvery-1 || t == e.cfg.Rounds-1) {
		st.TestLoss, st.TestAcc = e.Evaluate()
		st.Evaluated = true
	}

	if e.obsOn {
		tEval = time.Since(mark)
	}

	st.Elapsed = time.Since(start)
	if e.om != nil {
		e.om.rounds.Inc()
		e.om.aggFused.Add(int64(aggFusedN))
		e.om.aggFallback.Add(int64(aggFallbackN))
		e.om.aggSharded.Add(int64(aggShardedN))
		e.om.shardPeakBytes.SetMax(shardPeak)
		e.om.aggDecodeBytes.Add(int64(st.UploadBytes))
		e.om.oracleServer.Add(int64(oracleServerN))
		if e.cfg.Async {
			e.om.winFresh.Add(int64(st.FreshUploads))
			e.om.winStale.Add(int64(st.StaleUploads))
			e.om.winDropped.Add(int64(st.DroppedUploads))
			for _, members := range arrivals {
				for _, m := range members {
					e.om.staleHist.Observe(float64(m.Stale))
				}
			}
			e.om.spillDepth.Set(int64(st.SpillDepth))
			e.om.spillBytes.Set(int64(st.SpillBytes))
		}
		var filterEvals int64
		for _, n := range oracleFilterN {
			filterEvals += int64(n)
		}
		e.om.oracleFilter.Add(filterEvals)
		e.om.train.ObserveDuration(tTrain)
		e.om.upload.ObserveDuration(tUpload)
		e.om.filter.ObserveDuration(tFilter)
		e.om.eval.ObserveDuration(tEval)
	}
	if e.cfg.TraceSink != nil || e.cfg.Logger != nil {
		evaluated := 0.0
		if st.Evaluated {
			evaluated = 1
		}
		fields := map[string]float64{
			"train_ms":       tTrain.Seconds() * 1e3,
			"upload_ms":      tUpload.Seconds() * 1e3,
			"filter_ms":      tFilter.Seconds() * 1e3,
			"eval_ms":        tEval.Seconds() * 1e3,
			"train_loss":     st.TrainLoss,
			"model_spread":   st.ModelSpread,
			"upload_bytes":   float64(st.UploadBytes),
			"download_bytes": float64(st.DownloadBytes),
			"evaluated":      evaluated,
		}
		if e.cfg.Async {
			fields["fresh_uploads"] = float64(st.FreshUploads)
			fields["stale_uploads"] = float64(st.StaleUploads)
			fields["dropped_uploads"] = float64(st.DroppedUploads)
			fields["spill_depth"] = float64(st.SpillDepth)
			fields["spill_bytes"] = float64(st.SpillBytes)
		}
		if st.Evaluated {
			fields["test_loss"] = st.TestLoss
			fields["test_acc"] = st.TestAcc
		}
		obs.Publish(e.cfg.TraceSink, e.cfg.Logger, "fedms round",
			obs.Event{Round: t, Node: "engine", Name: "engine_round", Fields: fields})
	}
	e.sc.Advance()
	return st
}

// arrivals assembles each server's admitted member set for round t, in
// canonical (client, origin) order so membership — and therefore every
// aggregate bit — is independent of spill traversal order. This round's
// sends split three ways on the seeded virtual clock: on-time ones join
// fresh, late-but-admissible ones spill toward their arrival round, and
// sends past the staleness bound are dropped; spill records whose
// virtual arrival lands in this window join as stale entries,
// down-weighted by sched.Weight. The sync barrier is the degenerate
// case: no window means no delay and no spill, so every send is fresh.
func (e *Engine) arrivals(t int, assign [][]int, views []compress.Payload, uploads [][]float64, st *RoundStats) [][]sched.Entry {
	arrivals := make([][]sched.Entry, e.cfg.Servers)
	e.replaySpill(t, arrivals, st)
	// This round's sends, routed by their virtual arrival round.
	for i, members := range assign {
		arrivals[i] = slices.Grow(arrivals[i], len(members))
		for _, k := range members {
			delay := sched.ArrivalDelay(e.cfg.Seed, t, k, e.cfg.Window, sched.DefaultLatencyScale)
			if delay == 0 {
				arrivals[i] = append(arrivals[i], sched.Entry{Client: k, Origin: t, Weight: 1, View: views[k]})
				st.FreshUploads++
				continue
			}
			if d := sched.DecideAt(sched.Async, t+delay, t, e.cfg.Staleness); d.Outcome != sched.AcceptStale {
				st.DroppedUploads++
				continue
			}
			rec := spill.Record{Client: k, Server: i, Origin: t, Due: t + delay}
			if e.codecs != nil {
				rec.Enc, rec.Data = byte(e.encs[k]), e.encBufs[k]
			} else {
				rec.Enc, rec.Data = byte(compress.EncDense), compress.DenseWire(uploads[k])
			}
			if err := e.spill.Add(rec); err != nil {
				panic(fmt.Sprintf("core: spill add: %v", err))
			}
		}
	}
	for i := range arrivals {
		sched.Sort(arrivals[i])
	}
	return arrivals
}

// replaySpill moves the spill records due in round t into their
// servers' member sets; a no-op without a spill buffer (sync mode).
// Popping exactly Len() records cycles not-yet-due ones to the back
// once, preserving FIFO across rounds.
func (e *Engine) replaySpill(t int, arrivals [][]sched.Entry, st *RoundStats) {
	if e.spill == nil {
		return
	}
	for n := e.spill.Len(); n > 0; n-- {
		rec, ok, err := e.spill.Pop()
		if err != nil {
			panic(fmt.Sprintf("core: spill pop: %v", err))
		}
		if !ok {
			break
		}
		if rec.Due > t {
			if err := e.spill.Add(rec); err != nil {
				panic(fmt.Sprintf("core: spill requeue: %v", err))
			}
			continue
		}
		d := e.sc.Decide(rec.Origin)
		if d.Outcome != sched.AcceptStale {
			// A due record is stale by construction; anything else means
			// the bound moved (it cannot under a fixed config) — drop.
			st.DroppedUploads++
			continue
		}
		v, err := compress.ParsePayload(compress.Encoding(rec.Enc), rec.Data)
		if err != nil {
			panic(fmt.Sprintf("core: spill payload: %v", err))
		}
		arrivals[rec.Server] = append(arrivals[rec.Server], sched.Entry{
			Client: rec.Client, Origin: rec.Origin, Stale: d.Staleness, Weight: d.Weight, View: v,
		})
		st.StaleUploads++
	}
}

// Close releases the async spill buffer's disk segment; a no-op in
// sync mode. The engine must not run further rounds afterwards.
func (e *Engine) Close() error {
	if e.spill != nil {
		return e.spill.Close()
	}
	return nil
}

// activeClients returns the sorted ids of clients participating in
// round t (all of them under full participation).
func (e *Engine) activeClients(t int) []int {
	return ActiveClients(e.cfg.Seed, t, e.cfg.Clients, e.cfg.Participation)
}

// ActiveClients returns the sorted ids of the clients participating in
// round t under the given participation fraction — a pure function of
// (seed, round, clients, participation), exported so the distributed
// runtime samples exactly the engine's index sets (the parity contract
// of the partial-participation setting). participation outside (0, 1)
// means full participation.
func ActiveClients(seed uint64, round, clients int, participation float64) []int {
	if participation >= 1 || participation <= 0 {
		all := make([]int, clients)
		for i := range all {
			all[i] = i
		}
		return all
	}
	m := int(participation * float64(clients))
	perm := randx.Perm(randx.Split(seed, fmt.Sprintf("participation/r%d", round)), clients)
	active := append([]int(nil), perm[:m]...)
	sort.Ints(active)
	return active
}

// forEachClient runs fn(i) for every i in [0, n) on the bounded worker
// pool (cfg.Workers, default GOMAXPROCS) shared by the training and
// filter stages. fn must be safe for concurrent invocation on distinct
// indices; results must not depend on scheduling order.
func (e *Engine) forEachClient(n int, fn func(i int)) {
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// trainClients runs local training for the active clients, bounded by
// cfg.Workers, and returns their average losses (index-aligned with
// active).
func (e *Engine) trainClients(t int, active []int) []float64 {
	losses := make([]float64, len(active))
	globalStep := t * e.cfg.LocalSteps
	e.forEachClient(len(active), func(i int) {
		losses[i] = e.learners[active[i]].LocalTrain(e.cfg.LocalSteps, globalStep, e.cfg.Schedule)
	})
	return losses
}

// uploadAssignment maps each server to the active clients uploading to
// it in round t.
func (e *Engine) uploadAssignment(t int, active []int) [][]int {
	assign := make([][]int, e.cfg.Servers)
	switch e.cfg.Upload {
	case FullUpload:
		for i := range assign {
			assign[i] = active
		}
	case RoundRobinUpload:
		for _, k := range active {
			i := (k + t) % e.cfg.Servers
			assign[i] = append(assign[i], k)
		}
	default: // SparseUpload
		for _, k := range active {
			i := SparseUploadChoice(e.cfg.Seed, t, k, e.cfg.Servers)
			assign[i] = append(assign[i], k)
		}
	}
	return assign
}

// SparseUploadChoice returns the PS index client k uploads to in round
// t. It is derived per (seed, round, client) so the in-process engine
// and the distributed runtime (where each client draws its own choice)
// produce identical assignments.
func SparseUploadChoice(seed uint64, round, client, servers int) int {
	r := randx.Split(seed, fmt.Sprintf("upload/r%d/c%d", round, client))
	return r.IntN(servers)
}

// AttackRNG derives the deterministic randomness stream a Byzantine
// server uses when tampering in round t. Consistent attacks share one
// stream per (server, round); equivocating attacks get an independent
// stream per destination client. Exported so the distributed runtime
// produces byte-identical attack traces to the in-process engine.
func AttackRNG(seed uint64, server, round, client int, equivocates bool) *randx.RNG {
	if equivocates {
		return randx.Split(seed, fmt.Sprintf("attack/s%d/r%d/c%d", server, round, client))
	}
	return randx.Split(seed, fmt.Sprintf("attack/s%d/r%d", server, round))
}

// UploadAttackRNG derives the randomness stream a Byzantine client uses
// when tampering its round-t upload. Exported for distributed-runtime
// parity, like AttackRNG.
func UploadAttackRNG(seed uint64, round, client int) *randx.RNG {
	return randx.Split(seed, fmt.Sprintf("uattack/r%d/c%d", round, client))
}

// disseminate returns the distinct sets of P model vectors the clients
// receive in round t, applying the Byzantine attack where configured,
// and the index into sets of each client's set. Unless a Byzantine
// server equivocates, every client receives the same models: one set,
// each attack computed once per server. An equivocating attack sends
// each client its own models, recomputed per client with a per-client
// RNG stream on the worker pool: one set per client, setOf[k] = k.
func (e *Engine) disseminate(t int, aggs [][]float64) (sets [][][]float64, setOf []int) {
	atk := e.cfg.Attack
	// Colluding attackers (the paper's adaptive adversary) see the
	// benign servers' honest aggregates.
	var benignAggs [][]float64
	for i, a := range aggs {
		if !e.cfg.IsByzantine(i) {
			benignAggs = append(benignAggs, a)
		}
	}
	// receive builds the models client k receives; k = -1 stands for
	// every client under a consistent attack.
	receive := func(k int) [][]float64 {
		received := make([][]float64, e.cfg.Servers)
		for i := range received {
			if !e.cfg.IsByzantine(i) {
				received[i] = aggs[i]
				continue
			}
			ctx := &attack.Context{
				Round:      t,
				Server:     i,
				Client:     k,
				TrueAgg:    aggs[i],
				History:    e.history[i],
				BenignAggs: benignAggs,
				RNG:        AttackRNG(e.cfg.Seed, i, t, k, k >= 0),
			}
			received[i] = atk.Tamper(ctx)
		}
		return received
	}
	setOf = make([]int, e.cfg.Clients)
	if len(e.cfg.ByzantineIDs) == 0 || !atk.Equivocates() {
		return [][][]float64{receive(-1)}, setOf
	}
	sets = make([][][]float64, e.cfg.Clients)
	e.forEachClient(e.cfg.Clients, func(k int) {
		sets[k], setOf[k] = receive(k), k
	})
	return sets, setOf
}

// benignMean averages the honest aggregates — the reference point the
// paper's feasibility notion ("not far away from the global models
// aggregated by the benign PSs") is measured against.
func (e *Engine) benignMean(aggs [][]float64) []float64 {
	mean := make([]float64, e.dim)
	n := 0
	for i, a := range aggs {
		if e.cfg.IsByzantine(i) {
			continue
		}
		tensor.VecAdd(mean, a)
		n++
	}
	if n == 0 {
		return mean
	}
	tensor.VecScale(mean, 1/float64(n))
	return mean
}

// Evaluate averages test loss and accuracy over the first EvalClients
// client models (the paper reports the average test accuracy of the
// local models).
func (e *Engine) Evaluate() (loss, acc float64) {
	n := e.cfg.EvalClients
	for k := 0; k < n; k++ {
		l, a := e.learners[k].Evaluate()
		loss += l
		acc += a
	}
	return loss / float64(n), acc / float64(n)
}

// MeanClientParams returns the average of all client parameter vectors
// (the analysis's w̄_t), for diagnostics and the theory experiments.
func (e *Engine) MeanClientParams() []float64 {
	mean := make([]float64, e.dim)
	for _, l := range e.learners {
		tensor.VecAdd(mean, l.Params())
	}
	tensor.VecScale(mean, 1/float64(e.cfg.Clients))
	return mean
}

// RunContext executes rounds until the configured count is reached or
// ctx is cancelled, returning the stats of the completed rounds and
// ctx.Err() if it stopped early. Cancellation is checked between
// rounds, so a returned prefix is always a consistent training state.
func (e *Engine) RunContext(ctx context.Context) ([]RoundStats, error) {
	stats := make([]RoundStats, 0, e.cfg.Rounds)
	for !e.sc.Done() {
		select {
		case <-ctx.Done():
			return stats, ctx.Err()
		default:
		}
		stats = append(stats, e.RunRound())
	}
	return stats, nil
}
