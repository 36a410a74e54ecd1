package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/nn"
	"fedms/internal/node"
	"fedms/internal/obs"
	"fedms/internal/sched"
	"fedms/internal/theory"
)

// ioTimeout bounds every frame: far above any round, so a clean run
// never meets it and a wedged one still ends inside the driver's limit.
const ioTimeout = 60 * time.Second

// learningRate is the constant local step size of the quadratic
// learners (eigenvalues in [0.5, 2]: every direction contracts).
const learningRate = 0.25

// repResult is one repetition of one workload: set-up, R rounds,
// tear-down.
type repResult struct {
	SetupS  float64
	HelloS  float64   // dial + hello share of SetupS (loopback only)
	RoundS  []float64 // all R round durations
	WallS   float64   // wall-clock of the timed rounds
	CPUS    float64   // process CPU over the timed rounds
	UpBytes int64     // all rounds
	DnBytes int64
	Loss    float64 // client 0 after R rounds
	Loss0   float64 // client 0 before round 0
	Hash    string  // every client's final model

	Attempted, Failed int
	checks            []check

	// Traced repetitions only.
	Layer map[string]float64
	Spans []span
}

// encoded is one captured upload payload.
type encoded struct {
	enc  compress.Encoding
	data []byte
}

// capture holds one round's inputs, copied out of a traced repetition
// so each layer's public functions can be replayed on them afterwards
// from a single goroutine.
type capture struct {
	round  int
	params [][]float64 // per client: the model it uploaded
	// uploads holds, per origin round an async server may still admit at
	// the capture round, every client's payload (codec workloads).
	uploads  map[int][]encoded
	received map[int][]float64 // client 0: global model per PS (loopback only)
	filtered []float64         // client 0: filter output
}

func newCapture(w workload, round int) *capture {
	c := &capture{round: round, params: make([][]float64, w.K)}
	if w.Codec != "" {
		c.uploads = make(map[int][]encoded)
		for r := round - w.Staleness; r <= round; r++ {
			c.uploads[r] = make([]encoded, w.K)
		}
	}
	return c
}

// arrival is one model upload reaching the servers in some round.
type arrival struct {
	client, origin, stale int
	admitted              bool
}

// arrivals lists, per round, the uploads that reach the servers in it.
// A sync round sees its own K uploads; an async round sees what the
// seeded virtual clock delivers — the same pure functions the clients
// and servers consult, so this predicts the run without looking inside.
func arrivals(w workload, seed uint64) [][]arrival {
	out := make([][]arrival, w.Rounds)
	for o := 0; o < w.Rounds; o++ {
		for k := 0; k < w.K; k++ {
			delay := 0
			if w.Async {
				delay = sched.ArrivalDelay(seed, o, k, w.Window, w.Latency)
			}
			if at := o + delay; at < w.Rounds {
				d := sched.DecideAt(sched.Async, at, o, w.Staleness)
				out[at] = append(out[at], arrival{client: k, origin: o, stale: delay,
					admitted: d.Outcome == sched.Accept || d.Outcome == sched.AcceptStale})
			}
		}
	}
	return out
}

// captureRound picks the round whose inputs the replays run on: the
// middle of a sync repetition, and for async the timed round with the
// median number of admitted uploads — a typical round, so the replayed
// server rule sees a typical member set on every seed.
func captureRound(w workload, arr [][]arrival) int {
	if !w.Async {
		return w.Rounds / 2
	}
	admitted := func(r int) int {
		n := 0
		for _, a := range arr[r] {
			if a.admitted {
				n++
			}
		}
		return n
	}
	var rounds []int
	for r := max(warmupOf(w), w.Staleness); r < w.Rounds; r++ {
		rounds = append(rounds, r)
	}
	sort.SliceStable(rounds, func(i, j int) bool { return admitted(rounds[i]) < admitted(rounds[j]) })
	return rounds[len(rounds)/2]
}

// quadProblem is the loopback workloads' training task: K diagonal
// quadratics at dimension d, so local training is cheap and the wire,
// the codec and the aggregation rules carry the round.
func quadProblem(w workload, seed uint64) (*theory.Problem, error) {
	return theory.NewProblem(theory.ProblemConfig{
		Dim: w.Dim, Clients: w.K, Mu: 0.5, L: 2, NoiseStd: 0.1, Spread: 1, Seed: seed,
	})
}

// federation is one loopback repetition's moving parts.
type federation struct {
	w      workload
	seed   uint64
	probe  *probe
	reg    *obs.Registry // nil when untraced
	prob   *theory.Problem
	filter aggregate.Rule
	rule   aggregate.Rule
	spec   compress.Spec

	learners []*probedLearner
	codecs   []*probedCodec
	servers  []*node.PS
	cstats   [][]node.ClientRoundStats

	violations atomic.Int64 // filtered coordinates outside the benign range
	dialStart  int64
	helloSent  [][2]int64 // per client: transport frames, bytes its hellos took
}

// runFederation runs one loopback repetition of w. outDir receives the
// async spill segment should one ever be opened.
func runFederation(w workload, seed uint64, traced bool, outDir string) (*repResult, *federation, error) {
	f := &federation{w: w, seed: seed, probe: newProbe(w.K, w.Rounds, warmupOf(w), traced)}
	p := f.probe
	var err error
	if f.filter, err = aggregate.ParseRule(w.Filter); err != nil {
		return nil, nil, err
	}
	if f.rule, err = aggregate.ParseRule(w.ServerRule); err != nil {
		return nil, nil, err
	}
	if f.spec, err = compress.ParseSpec(w.Codec); err != nil {
		return nil, nil, err
	}
	if traced {
		f.reg = obs.NewRegistry()
		p.cap = newCapture(w, captureRound(w, arrivals(w, seed)))
		f.helloSent = make([][2]int64, w.K)
		p.firstTrain = func(id int) { f.helloSent[id] = f.sent(fmt.Sprintf("c%d", id)) }
	}

	// ---- set-up: problem, learners, listeners, K·P dials + hellos ----
	if f.prob, err = quadProblem(w, seed); err != nil {
		return nil, nil, err
	}
	addrs := make([]string, w.P)
	for i := 0; i < w.P; i++ {
		cfg := node.PSConfig{
			ID: i, ListenAddr: "127.0.0.1:0", Clients: w.K, Rounds: w.Rounds,
			ServerRule: f.rule, Seed: seed, Timeout: ioTimeout, Obs: f.reg,
		}
		if i == w.Byz {
			cfg.Attack = attack.Noise{}
		}
		if w.Async {
			cfg.Async, cfg.Window, cfg.Staleness = true, w.Window, w.Staleness
			cfg.SpillDir, cfg.SpillMem = filepath.Join(outDir, "spill"), w.SpillMem
		}
		ps, err := node.NewPS(cfg)
		if err != nil {
			for _, s := range f.servers {
				_ = s.Close()
			}
			return nil, nil, err
		}
		f.servers = append(f.servers, ps)
		addrs[i] = ps.Addr()
	}
	// One node failing must not leave the others waiting out ioTimeout.
	var abort sync.Once
	fail := make(chan error, w.K+w.P)
	failed := func(err error) {
		fail <- err
		abort.Do(func() {
			for _, s := range f.servers {
				s.Crash()
			}
		})
	}

	var wg sync.WaitGroup
	for _, ps := range f.servers {
		wg.Add(1)
		go func(ps *node.PS) {
			defer wg.Done()
			if err := ps.Serve(); err != nil {
				failed(err)
			}
		}(ps)
	}
	f.cstats = make([][]node.ClientRoundStats, w.K)
	f.dialStart = p.now()
	for k := 0; k < w.K; k++ {
		l := &probedLearner{Learner: f.prob.Learner(k), p: p, id: k, node: fmt.Sprintf("c%d", k)}
		f.learners = append(f.learners, l)
		cfg := node.ClientConfig{
			ID: k, Learner: l, Servers: addrs, Rounds: w.Rounds, LocalSteps: w.LocalSteps,
			FullUpload: w.FullUpload, Filter: f.filter, Schedule: nn.ConstantLR(learningRate),
			Seed: seed, Timeout: ioTimeout, Obs: f.reg,
		}
		if !f.spec.IsDense() {
			c, err := f.spec.NewCodec(core.ClientCodecSeed(seed, k))
			if err != nil {
				failed(err)
				break
			}
			cfg.Codec = c
			if traced {
				pc := &probedCodec{Codec: c, l: l}
				f.codecs = append(f.codecs, pc)
				cfg.Codec = pc
			}
		}
		if w.Async {
			cfg.Async, cfg.Window, cfg.Staleness, cfg.LatencyScale = true, w.Window, w.Staleness, w.Latency
		}
		if traced {
			cfg.OnRound = f.onRound(k)
		}
		wg.Add(1)
		go func(k int, cfg node.ClientConfig) {
			defer wg.Done()
			st, err := node.RunClient(cfg)
			f.cstats[k] = st
			if err != nil {
				failed(err)
			}
		}(k, cfg)
	}
	wg.Wait()
	close(fail)
	if err := <-fail; err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return f.result(), f, nil
}

// onRound checks the paper's filter invariant on every traced round —
// each filtered coordinate inside the range of the benign servers'
// models — and keeps client 0's capture-round models for the replays.
func (f *federation) onRound(k int) func(int, map[int][]float64, []float64) {
	lo, hi := make([]float64, f.w.Dim), make([]float64, f.w.Dim)
	return func(round int, received map[int][]float64, filtered []float64) {
		if c := f.probe.cap; k == 0 && round == c.round {
			c.received = make(map[int][]float64, len(received))
			for i, m := range received {
				c.received[i] = append([]float64(nil), m...)
			}
		}
		// One client checks each round, in turn: every client is checked
		// and every round is, at an eighth of the cost to the traced run.
		if round%f.w.K != k {
			return
		}
		first := true
		for i, m := range received {
			switch {
			case i == f.w.Byz:
			case first:
				copy(lo, m)
				copy(hi, m)
				first = false
			default:
				for j, v := range m {
					lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
				}
			}
		}
		bad := int64(0)
		for j, v := range filtered {
			// The mean of the kept values rounds: when the benign models
			// agree (full upload) it may land an ulp outside their range.
			slack := 1e-12 * max(1, math.Abs(lo[j]), math.Abs(hi[j]))
			if v < lo[j]-slack || v > hi[j]+slack {
				bad++
			}
		}
		f.violations.Add(bad)
	}
}

// sent reads a node's transport counters: frames and bytes it has put
// on the wire so far.
func (f *federation) sent(nodeName string) [2]int64 {
	return [2]int64{
		f.reg.Counter(`fedms_transport_frames_sent_total{node="` + nodeName + `"}`).Value(),
		f.reg.Counter(`fedms_transport_bytes_sent_total{node="` + nodeName + `"}`).Value(),
	}
}

func (f *federation) result() *repResult {
	w, p := f.w, f.probe
	res := &repResult{
		SetupS: float64(p.setupEnd) / 1e9,
		HelloS: float64(p.setupEnd-f.dialStart) / 1e9,
		RoundS: make([]float64, w.Rounds),
		WallS:  float64(p.roundEnd[w.Rounds-1]-p.roundEnd[p.warm-1]) / 1e9,
		CPUS:   p.cpuEnd - p.cpuWarm,
	}
	prev := p.setupEnd
	for r, end := range p.roundEnd {
		res.RoundS[r] = float64(end-prev) / 1e9
		prev = end
	}
	res.Loss, _ = f.learners[0].Evaluate()
	res.Loss0, _ = f.prob.Learner(0).Evaluate()
	models := make([][]float64, w.K)
	for k, l := range f.learners {
		models[k] = l.Learner.Params()
	}
	res.Hash = hashModels(models)

	// failed client-rounds: rounds a client never finished, degraded
	// rounds, and uploads a server waited for in vain.
	res.Attempted = w.K * w.Rounds
	var psIn, psOut, expired int64
	for _, st := range f.cstats {
		res.Failed += w.Rounds - len(st)
		for _, rs := range st {
			if rs.Degraded {
				res.Failed++
			}
			res.UpBytes += int64(rs.UploadBytes)
			res.DnBytes += int64(rs.DownloadBytes)
		}
	}
	for _, ps := range f.servers {
		st := ps.Stats()
		res.Failed += st.UploadsMissed
		psIn, psOut, expired = psIn+int64(st.BytesIn), psOut+int64(st.BytesOut), expired+int64(st.WindowExpired)
	}
	res.checks = append(res.checks,
		checkf("bytes_reconcile", res.UpBytes == psIn && res.DnBytes == psOut,
			"clients sent %d received %d, servers received %d sent %d", res.UpBytes, res.DnBytes, psIn, psOut),
		checkf("window_never_expired", expired == 0, "node.window_expired = %d", expired),
	)
	if p.traced {
		res.checks = append(res.checks, checkf("filter_invariant", f.violations.Load() == 0,
			"%d filtered coordinates outside the benign servers' range", f.violations.Load()))
	}
	return res
}

// hashModels fingerprints the clients' final models bit for bit.
func hashModels(models [][]float64) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	for _, m := range models {
		for _, v := range m {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
