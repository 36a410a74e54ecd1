package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/obs"
	"fedms/internal/par"
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

	// servers[i] and clients[k] run the protocol roles, the same code a
	// distributed PS and client node run; their state (aggregate history,
	// codec residuals, encode buffers) persists across rounds.
	servers []*Server
	clients []*Client
	// filters[s] filters received set s (one set, or one per client
	// under an equivocating attack — see disseminate); SetParams copies
	// into each learner, so its reused output never outlives the round.
	filters []*Filter

	// sc is the shared round-lifecycle state machine: the engine asks
	// it for the round cursor and every async admission decision, the
	// same Scheduler the distributed PS drives.
	sc *sched.Scheduler
	// spill buffers async uploads still in flight toward a later
	// round, overflowing to disk past cfg.SpillMem. nil in sync mode.
	spill *spill.Buffer

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
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	// The servers and the concurrent per-set filters share the oracle.
	cfg.LossOracle = aggregate.Serialize(cfg.LossOracle)
	// Local training shares the same budget: clients train concurrently,
	// so each learner gets an equal slice of the pool for its GEMM
	// kernels. Learners with an explicit setting keep it.
	perLearner := cfg.Workers / len(learners)
	if perLearner < 1 {
		perLearner = 1
	}
	for _, l := range learners {
		if wl, ok := l.(workerLearner); ok && wl.Workers() == 0 {
			wl.SetWorkers(perLearner)
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
	if cfg.Async {
		spillBuf = spill.New(spill.Config{MemLimit: cfg.SpillMem, Dir: cfg.SpillDir})
	}
	servers := make([]*Server, cfg.Servers)
	for i := range servers {
		var atk attack.Attack
		if cfg.IsByzantine(i) {
			atk = cfg.Attack
		}
		servers[i] = NewServer(i, cfg.Seed, cfg.ServerFilter, cfg.LossOracle, cfg.Workers, atk, w0)
	}
	clients := make([]*Client, cfg.Clients)
	for k := range clients {
		var codec compress.Codec
		if !cfg.UploadCodec.IsDense() {
			if codec, err = cfg.UploadCodec.NewCodec(ClientCodecSeed(cfg.Seed, k)); err != nil {
				return nil, fmt.Errorf("core: UploadCodec: %w", err)
			}
		}
		var atk attack.UploadAttack
		if cfg.IsByzantineClient(k) {
			atk = cfg.ClientAttack
		}
		clients[k] = NewClient(k, cfg.Seed, learners[k], atk, codec)
	}
	return &Engine{
		cfg:      cfg,
		learners: learners,
		dim:      dim,
		servers:  servers,
		clients:  clients,
		sc:       sc,
		spill:    spillBuf,
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

// Run executes the rounds left of cfg.Rounds and returns their
// statistics: RunContext without cancellation.
func (e *Engine) Run() []RoundStats {
	stats, _ := e.RunContext(context.Background())
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

	// The servers aggregate payload views of what each client uploaded:
	// views of the encoded bytes under an upload codec — the same views a
	// distributed PS parses off the wire, so fused rules aggregate
	// straight out of the codec payloads without a per-client densify —
	// and the models themselves, wrapped without a copy, when dense.
	uploadBytes := make([]int, e.cfg.Clients)
	views := make([]compress.Payload, e.cfg.Clients)
	for _, k := range active {
		params, enc, payload := e.clients[k].Upload()
		if payload == nil {
			views[k], uploadBytes[k] = compress.DensePayload(params), 8*e.dim
			continue
		}
		v, err := compress.ParsePayload(enc, payload)
		if err != nil {
			panic(fmt.Sprintf("core: upload codec self-parse: %v", err))
		}
		views[k], uploadBytes[k] = v, len(payload)
	}

	// ---- Model aggregation stage (lines 3-4, 11) ----
	// One lifecycle for both modes: each server aggregates the member
	// set its round admitted. Under the sync barrier that is exactly
	// this round's uploads, all fresh; under the async window it is the
	// on-time sends plus spill records due now, stale ones down-weighted
	// before the robust rule. aggregate.Run sees only the set.
	assign := e.uploadAssignment(t, active)
	arrivals := e.arrivals(t, assign, views, &st)
	aggs := make([][]float64, e.cfg.Servers)
	var aggFusedN, aggFallbackN, oracleServerN int
	for i, members := range arrivals {
		// A server that admitted nothing re-disseminates its last
		// aggregate (it has nothing newer); with K >> P this is rare under
		// sparse upload. Every server has one from w_0 on, so this cannot
		// fail.
		res, err := e.servers[i].Aggregate(members)
		if err != nil {
			panic(fmt.Sprintf("core: server %d: %v", i, err))
		}
		aggs[i] = res.Out
		if len(members) > 0 {
			if res.Fused {
				aggFusedN++
			} else {
				aggFallbackN++
			}
			oracleServerN += res.OracleEvals
		}
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
	results := make([]aggregate.Result, len(sets))
	spreads := make([]float64, len(sets))
	setBytes := make([]int, len(sets))
	if len(e.filters) != len(sets) {
		e.filters = make([]*Filter, len(sets))
		for s := range e.filters {
			e.filters[s] = NewFilter(e.cfg.Filter, e.cfg.LossOracle, e.cfg.Servers, e.cfg.Servers, e.cfg.Workers)
		}
	}
	par.For(len(sets), e.cfg.Workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			views := make([]compress.Payload, len(sets[s]))
			for i, v := range sets[s] {
				n := 8 * e.dim
				if !e.cfg.DownlinkCodec.IsDense() {
					// The downlink codec is a deterministic function of the
					// vector (EF and randk are rejected by Validate), so one
					// roundtrip per set is what each of its clients would
					// decode, and matches the distributed PS encoding the
					// same vector.
					var err error
					if v, n, err = e.cfg.DownlinkCodec.EncodeDecode(v); err != nil {
						panic(fmt.Sprintf("core: downlink codec: %v", err))
					}
				}
				views[i], setBytes[s] = compress.DensePayload(v), setBytes[s]+n
			}
			res, err := e.filters[s].Apply(views)
			if err != nil {
				panic(fmt.Sprintf("core: filter: %v", err))
			}
			results[s], spreads[s] = res, tensor.VecDist2(res.Out, benignMean)
		}
	})
	par.For(e.cfg.Clients, e.cfg.Workers, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			e.learners[k].SetParams(results[setOf[k]].Out)
		}
	})
	for _, d := range spreads {
		if d > st.ModelSpread {
			st.ModelSpread = d
		}
	}
	for _, s := range setOf {
		st.DownloadBytes += setBytes[s]
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
		for _, res := range results {
			e.om.oracleFilter.Add(int64(res.OracleEvals))
		}
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
func (e *Engine) arrivals(t int, assign [][]int, views []compress.Payload, st *RoundStats) [][]sched.Entry {
	arrivals := make([][]sched.Entry, e.cfg.Servers)
	dropped, err := e.sc.Replay(e.spill, func(server int, m sched.Entry) {
		arrivals[server] = append(arrivals[server], m)
		st.StaleUploads++
	})
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	st.DroppedUploads += dropped
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
			params, enc, payload := e.clients[k].Upload()
			if payload != nil {
				rec.Enc, rec.Data = byte(enc), payload
			} else {
				rec.Enc, rec.Data = byte(compress.EncDense), compress.DenseWire(params)
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

// trainClients runs the active clients' round (training, tampering,
// encoding — see Client.Train), bounded by cfg.Workers, and returns
// their average losses (index-aligned with active).
func (e *Engine) trainClients(t int, active []int) []float64 {
	losses := make([]float64, len(active))
	par.For(len(active), e.cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			losses[i] = e.clients[active[i]].Train(t, e.cfg.LocalSteps, e.cfg.Schedule)
		}
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
// stream per destination client. Server.Send derives it for both
// runtimes; it is exported for benchmark/, which replays attack traces
// outside this module.
func AttackRNG(seed uint64, server, round, client int, equivocates bool) *randx.RNG {
	if equivocates {
		return randx.Split(seed, fmt.Sprintf("attack/s%d/r%d/c%d", server, round, client))
	}
	return randx.Split(seed, fmt.Sprintf("attack/s%d/r%d", server, round))
}

// uploadAttackRNG derives the randomness stream a Byzantine client uses
// when tampering its round-t upload (see Client.Train).
func uploadAttackRNG(seed uint64, round, client int) *randx.RNG {
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
		for i, s := range e.servers {
			received[i] = s.Send(t, k, benignAggs)
		}
		return received
	}
	setOf = make([]int, e.cfg.Clients)
	if len(e.cfg.ByzantineIDs) == 0 || !e.cfg.Attack.Equivocates() {
		return [][][]float64{receive(-1)}, setOf
	}
	sets = make([][][]float64, e.cfg.Clients)
	par.For(e.cfg.Clients, e.cfg.Workers, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			sets[k], setOf[k] = receive(k), k
		}
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
