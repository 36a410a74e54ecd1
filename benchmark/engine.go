package main

import (
	"fmt"
	"runtime"
	"time"

	"fedms"
	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/obs"
)

// engineRun is one traced engine repetition's outside view.
type engineRun struct {
	w        workload
	seed     uint64
	probe    *probe
	reg      *obs.Registry
	events   *obs.Trace
	eng      *core.Engine
	learners []*probedLearner
	roots    []span
	mallocs  uint64
	heap     uint64
}

// runEngine runs one in-process repetition of w: fedms.BuildEngine,
// then RunRound back to back. A traced repetition rebuilds the engine
// around wrapped learners — the only way to stand between core and nn
// from outside — inside the timed set-up.
func runEngine(w workload, seed uint64, traced bool, workers int) (*repResult, *engineRun, error) {
	warm := warmupOf(w)
	e := &engineRun{w: w, seed: seed, probe: newProbe(w.K, w.Rounds, warm, traced)}
	p := e.probe
	p.engine = true
	p.engineRound.Store(-1)

	cfg := fedms.Config{
		Clients: w.K, Servers: w.P, NumByzantine: w.B, Attack: fedms.NoiseAttack{},
		Rounds: w.Rounds, LocalSteps: w.LocalSteps, FilterRule: w.Filter,
		Dataset: fedms.DatasetSpec{Kind: fedms.DatasetBlobs, Samples: w.Samples, Alpha: 1},
		Model:   fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: w.Hidden},
		Seed:    seed, EvalEvery: -1, Workers: workers,
	}
	if traced {
		e.reg, e.events = obs.NewRegistry(), obs.NewTrace(0)
		cfg.Obs, cfg.TraceSink = e.reg, e.events
	}
	eng, err := fedms.BuildEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		wrapped := make([]core.Learner, w.K)
		for k, l := range eng.Learners() {
			pl := &probedLearner{Learner: l, p: p, id: k, node: fmt.Sprintf("c%d", k)}
			e.learners = append(e.learners, pl)
			wrapped[k] = pl
		}
		if eng, err = core.NewEngine(eng.Config(), wrapped); err != nil {
			return nil, nil, err
		}
		round, err := engineCaptureRound(w, seed)
		if err != nil {
			return nil, nil, err
		}
		p.cap = newCapture(w, round)
	}
	e.eng = eng
	res := &repResult{SetupS: time.Since(p.epoch).Seconds(), RoundS: make([]float64, w.Rounds)}
	res.Loss0, _ = eng.Learners()[0].Evaluate()

	var cpu0 float64
	var mem0, mem1 runtime.MemStats
	var wall0 int64
	for r := 0; r < w.Rounds; r++ {
		if r == warm {
			if traced {
				runtime.ReadMemStats(&mem0)
			}
			cpu0, wall0 = cpuSeconds(), p.now()
		}
		p.engineRound.Store(int32(r))
		start := p.now()
		st := eng.RunRound()
		end := p.now()
		res.RoundS[r] = float64(end-start) / 1e9
		res.UpBytes += int64(st.UploadBytes)
		res.DnBytes += int64(st.DownloadBytes)
		e.roots = append(e.roots, span{Name: "engine.round", Start: start, End: end, Round: r, Node: "engine"})
	}
	res.WallS = float64(p.now()-wall0) / 1e9
	res.CPUS = cpuSeconds() - cpu0
	if traced {
		runtime.ReadMemStats(&mem1)
		e.mallocs, e.heap = mem1.Mallocs-mem0.Mallocs, mem1.TotalAlloc-mem0.TotalAlloc
	}
	if err := eng.Close(); err != nil {
		return nil, nil, err
	}

	res.Loss, _ = eng.Learners()[0].Evaluate()
	models := make([][]float64, w.K)
	for k, l := range eng.Learners() {
		models[k] = l.Params()
	}
	res.Hash = hashModels(models)
	// The engine has no wire to lose a client-round on: a round either
	// returns or the process dies.
	res.Attempted = w.K * w.Rounds
	return res, e, nil
}

// engineCaptureRound is the first round from the middle on in which
// every server is assigned an upload, so the replay can rebuild all P
// disseminated models from the captured uploads alone.
func engineCaptureRound(w workload, seed uint64) (int, error) {
	for r := w.Rounds / 2; r < w.Rounds; r++ {
		seen := make([]bool, w.P)
		n := 0
		for k := 0; k < w.K; k++ {
			if i := core.SparseUploadChoice(seed, r, k, w.P); !seen[i] {
				seen[i] = true
				n++
			}
		}
		if n == w.P {
			return r, nil
		}
	}
	return 0, fmt.Errorf("%s: seed %d leaves a server idle in every round from %d on; no round to replay", w.Name, seed, w.Rounds/2)
}

// layerMetrics is the engine's per-layer account: learner-wrapper sums
// and the engine's own stage histograms in situ, then a replay that
// rebuilds the capture round's server aggregates, attack and filter
// from the captured uploads.
func (e *engineRun) layerMetrics(res *repResult) (map[string]float64, []check, error) {
	w, p, c := e.w, e.probe, e.probe.cap
	timed := float64(w.Rounds - p.warm)
	m := make(map[string]float64)

	spans := [][]span{e.stageSpans()}
	for _, l := range e.learners {
		m["nn.train_s"] += float64(l.trainNS) / 1e9 / timed
		m["nn.setparams_s"] += float64(l.setNS) / 1e9 / timed
		spans = append(spans, l.spans)
	}
	res.Spans = buildTrace("engine.round", e.roots, spans)
	for _, stage := range []string{"train", "upload", "filter", "eval"} {
		h := e.reg.Histogram(`fedms_engine_stage_seconds{stage="`+stage+`"}`, nil)
		m["core.stage_"+stage+"_s"] = h.Sum() / float64(h.Count())
	}
	m["core.allocs_per_round"] = float64(e.mallocs) / timed
	m["core.alloc_bytes_per_round"] = float64(e.heap) / timed
	m["node.round_s_p90"] = quantile(res.RoundS[p.warm:], 0.9)
	m["node.upload_admit_ratio"] = 1
	fused := float64(e.reg.Counter("fedms_engine_agg_fused_total").Value())
	m["aggregate.fused_share"] = fused / (fused + float64(e.reg.Counter("fedms_engine_agg_fallback_total").Value()))

	// ---- replay: uploads -> P aggregates -> attack -> filter ----
	cfg := e.eng.Config()
	filter, err := aggregate.ParseRule(w.Filter)
	if err != nil {
		return nil, nil, err
	}
	members := make([][]compress.Payload, w.P)
	for k := 0; k < w.K; k++ {
		i := core.SparseUploadChoice(e.seed, c.round, k, w.P)
		members[i] = append(members[i], compress.DensePayload(c.params[k]))
	}
	received := make([][]float64, w.P)
	for i := range received {
		m["aggregate.server_rule_s"] += timeIt(func() { received[i], _ = aggregate.AggregatePayloadsInto(cfg.ServerFilter, received[i], members[i]) })
	}
	for _, i := range cfg.ByzantineIDs {
		agg := received[i]
		m["attack.apply_s"] += timeIt(func() {
			received[i] = attack.Noise{}.Tamper(&attack.Context{
				Round: c.round, Server: i, Client: -1, TrueAgg: agg,
				RNG: core.AttackRNG(e.seed, i, c.round, -1, false),
			})
		})
	}
	var filtered []float64
	m["aggregate.filter_s"] = float64(w.K) * timeIt(func() { filtered = aggregate.AggregateInto(filter, filtered, received) })
	checks := []check{checkf("replay_matches_run", equalBits(filtered, c.filtered),
		"round %d: replayed server rule, attack and filter output differs from the model client 0 was given", c.round)}

	budget(m, res.CPUS/timed)
	return m, checks, nil
}

// stageSpans lays the engine's own per-round stage timings (its
// engine_round trace events carry durations, not instants) end to end
// from each round's start, clipped to the round.
func (e *engineRun) stageSpans() []span {
	var out []span
	for _, ev := range e.events.Events() {
		if ev.Name != "engine_round" || ev.Round >= len(e.roots) {
			continue
		}
		root := e.roots[ev.Round]
		at := root.Start
		for _, stage := range []string{"train", "upload", "filter", "eval"} {
			end := min(at+int64(ev.Fields[stage+"_ms"]*1e6), root.End)
			out = append(out, span{Name: "engine.stage." + stage, Start: at, End: end, Round: ev.Round, Node: "engine"})
			at = end
		}
	}
	return out
}
