package node

import (
	"cmp"
	"fmt"
	"log/slog"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/nn"
	"fedms/internal/obs"
	"fedms/internal/sched"
	"fedms/internal/transport"
)

// maxDialBackoff caps the exponential dial backoff.
const maxDialBackoff = time.Second

// ClientConfig configures one federated client node.
type ClientConfig struct {
	// ID is the client index in [0, K).
	ID int
	// Learner is the client's local trainable state.
	Learner core.Learner
	// Servers lists PS addresses indexed by server id.
	Servers []string
	// Rounds and LocalSteps mirror the core.Config fields T and E.
	Rounds     int
	LocalSteps int
	// Clients is K, the total client count of the federation — the
	// population Participation samples from. Required when
	// Participation ∈ (0, 1); otherwise unused.
	Clients int
	// Participation mirrors core.Config.Participation: the fraction of
	// clients active per round, sampled without replacement from the
	// shared seed. Each round this client checks its membership in
	// core.ActiveClients(Seed, round, Clients, Participation) — the
	// exact index set the in-process engine samples — and when inactive
	// skips local training and sends empty skip frames to every PS
	// (preserving the K-frame barrier) while still receiving and
	// filtering the global models, as in the engine. 0 or 1 means full
	// participation.
	Participation float64
	// FullUpload sends the model to every PS instead of one random PS.
	FullUpload bool
	// UploadAttack, when non-nil, makes this client Byzantine: it
	// trains honestly but uploads the tampered model (the two-sided
	// threat model; see core.Config.ClientAttack).
	UploadAttack attack.UploadAttack
	// Filter is the client-side defence (TrimmedMean for Fed-MS).
	Filter aggregate.Rule
	// LossOracle scores a candidate model on a holdout split shared
	// with the servers; when set and Filter implements
	// aggregate.LossRule, the model filter routes through it (see
	// core.Config.LossOracle for the contract). Evals are counted in
	// Obs (fedms_client_oracle_evals_total).
	LossOracle aggregate.LossEval
	// Schedule is the learning-rate schedule.
	Schedule nn.Schedule
	// Seed is the shared experiment seed (drives the upload choice).
	Seed uint64
	// Key, when non-empty, enables per-frame HMAC authentication; it
	// must match the servers' key.
	Key []byte
	// Timeout bounds each frame send/receive.
	Timeout time.Duration
	// EvalEvery, if positive, evaluates the learner every that many
	// rounds and records the result in the returned stats.
	EvalEvery int
	// MinModels enables graceful degradation: a round succeeds when at
	// least MinModels global models arrive, and a short round (P' < P)
	// filters the survivors under core.Filter's trim rule — the per-side
	// trim stays ⌈β·P⌉ = B, so up to B Byzantine models are still
	// discarded. It may not be below core.FilterFloor (2B+1 for a
	// trimmed mean): Validate rejects a quorum the filter would refuse
	// mid-run. Zero is the strict protocol: all P models required, any
	// fault fatal.
	MinModels int
	// Faults, when non-nil, injects deterministic transport faults into
	// this client's upload links (labelled "c<ID>->ps<i>"). The hello
	// handshake is never faulted.
	Faults *transport.FaultInjector
	// Redial, in tolerant mode, re-dials dead parameter servers at the
	// start of each round so a crashed-and-restarted PS rejoins the
	// federation.
	Redial bool
	// DialAttempts bounds connection attempts per server (default 3),
	// spaced by capped exponential backoff.
	DialAttempts int
	// DialBackoff is the initial retry backoff (default 50ms, doubled
	// per attempt, capped at 1s).
	DialBackoff time.Duration
	// OnRound, when non-nil, observes every completed round: the global
	// models that actually arrived (keyed by PS id) and the filtered
	// result. The chaos tests use it to check the filter output against
	// benign coordinate bounds; callers must not mutate the arguments.
	// Both are valid only during the call: received views the frames
	// the models arrived in, whose buffers the next round's models are
	// decoded into, and filtered is the filter's reused output buffer.
	OnRound func(round int, received map[int][]float64, filtered []float64)
	// Codec compresses this client's uploads into v2 codec frames (nil
	// keeps the pre-codec v1 dense frames; ClientConfigFor leaves it nil
	// for a dense spec). Stateful codecs — error feedback — keep their
	// residual in the instance, so it persists across the client's
	// rounds; instances must not be shared between clients.
	Codec compress.Codec

	// Async switches the client to the windowed lifecycle: each round's
	// model draws a deterministic virtual arrival delay (see
	// sched.ArrivalDelay); a delayed model is parked in a local backlog
	// and sent later as a stale-tagged frame while the round's marker to
	// its PS degrades to a skip. Window and Staleness must match the
	// servers' PSConfig.
	Async bool
	// Window is the servers' aggregation window (defaults like
	// PSConfig.Window); it sets the virtual-delay quantum.
	Window time.Duration
	// Staleness is the servers' admission bound S. The client only
	// validates it with Window (sched.Knobs: non-negative, and zero
	// outside Async mode); it sends every due backlog entry regardless
	// and lets the PS rule on admission, exactly as the engine accounts
	// drops.
	Staleness int
	// LatencyScale overrides the virtual upload-latency scale (0 means
	// sched.DefaultLatencyScale). Tests use a scale much larger than
	// the window to provoke stale traffic without shrinking the real
	// deadline the federation runs under.
	LatencyScale time.Duration

	// Logger, when non-nil, records one "client round" line per round,
	// derived from the round's trace event (obs.Publish): the same keys
	// TraceSink receives.
	Logger *slog.Logger
	// Obs, when non-nil, registers this client's runtime counters and
	// the transport counters of its connections (fedms_client_* and
	// fedms_transport_*, labelled by node). Observation never perturbs
	// the protocol: seeded runs are bit-identical with or without it
	// (see TestObsDeterminism*).
	Obs *obs.Registry
	// TraceSink, when non-nil, receives one obs.Event per completed
	// round ("client_round") with participation and wire totals.
	TraceSink *obs.Trace
}

// ClientRoundStats records one round as seen by a client node.
type ClientRoundStats struct {
	Round     int
	TrainLoss float64
	TestLoss  float64
	TestAcc   float64
	Evaluated bool
	// UploadedTo is the PS that received this client's model (-1 for
	// full upload).
	UploadedTo int
	// Active reports whether this client was sampled into the round
	// (always true under full participation). An inactive round trains
	// nothing and uploads skip frames only.
	Active bool
	// ModelsReceived counts the global models that arrived this round
	// (P when nothing was lost).
	ModelsReceived int
	// Degraded reports that fewer than P models arrived and the filter
	// fell back to trimming over the survivors.
	Degraded bool
	// UploadBytes counts the model payload bytes this client put on the
	// wire this round (dense models count 8 bytes per coordinate).
	UploadBytes int
	// DownloadBytes counts the model payload bytes received this round.
	DownloadBytes int
	// StaleUploads counts backlog models delivered stale-tagged this
	// round; DroppedUploads counts due backlog models abandoned because
	// every target server was dead; BacklogDepth is the backlog size
	// after this round's sends. All zero in sync mode.
	StaleUploads   int
	DroppedUploads int
	BacklogDepth   int
}

// backlogged is one virtually delayed upload waiting in the client's
// async backlog: the payload bytes frozen at its origin round, the
// round it comes due, and its target PS (-1 broadcasts to all, the
// full-upload mode).
type backlogged struct {
	origin, due, to int
	enc             compress.Encoding
	data            []byte
}

// dialPS connects to server i with capped exponential backoff, performs
// the hello handshake, and attaches the fault link and wire counters.
func dialPS(cfg *ClientConfig, i int, addr string, hello []float64, tm *transport.Metrics) (*transport.Conn, error) {
	backoff := cfg.DialBackoff
	var lastErr error
	for attempt := 0; attempt < cfg.DialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > maxDialBackoff {
				backoff = maxDialBackoff
			}
		}
		conn, err := transport.Dial(addr, cfg.Timeout)
		if err != nil {
			lastErr = err
			continue
		}
		conn.SetKey(cfg.Key)
		conn.SetMetrics(tm)
		// Every client decodes v2 frames, so every hello advertises
		// them; the PS encodes the downlink only if it has a codec. The
		// connect token lets a restarted PS re-admit this client
		// statelessly when a key is shared.
		info := transport.HelloInfo{CodecV2: true}
		if len(cfg.Key) > 0 {
			info.Token = transport.ConnectToken(cfg.Key, cfg.Seed, cfg.ID)
		}
		if err := sendHello(conn, cfg.ID, info.Text(), hello); err != nil {
			_ = conn.Close()
			lastErr = err
			continue
		}
		if cfg.Faults != nil {
			conn.SetFaults(cfg.Faults.Link(fmt.Sprintf("c%d->ps%d", cfg.ID, i)))
		}
		return conn, nil
	}
	return nil, lastErr
}

// sendHello introduces client id on conn in two frames: the first stays
// under the server's hello-phase body cap (the seed flag and text — codec
// advertisement, connect token — but no model), and the model seed
// follows as a second TypeHello frame the server reads only after
// admitting the introduction.
func sendHello(conn *transport.Conn, id int, text string, seed []float64) error {
	err := conn.Send(&transport.Message{
		Type: transport.TypeHello, Sender: uint32(id),
		Flag: uint32(id) | transport.HelloSeedFlag, Text: text,
	})
	if err != nil {
		return err
	}
	return conn.Send(&transport.Message{
		Type: transport.TypeHello, Sender: uint32(id), Flag: uint32(id), Vec: seed,
	})
}

// Validate checks the configuration and returns a normalized copy with
// the defaults applied (Timeout, DialAttempts, DialBackoff, Window,
// LatencyScale). Every rejection is a *core.FieldError naming the field
// it is about. The Learner is not a setting and is not checked here;
// RunClient checks it after calling Validate.
func (c ClientConfig) Validate() (ClientConfig, error) {
	who := fmt.Sprintf("client %d", c.ID)
	if c.Filter == nil {
		return c, fieldErr(who, "Filter", "Filter is required")
	}
	if c.Schedule == nil {
		return c, fieldErr(who, "Schedule", "Schedule is required")
	}
	p := len(c.Servers)
	if p == 0 {
		return c, fieldErr(who, "Servers", "no servers")
	}
	if c.MinModels < 0 || c.MinModels > p {
		return c, fieldErr(who, "MinModels", "MinModels %d is outside [0, P=%d]", c.MinModels, p)
	}
	if floor := core.FilterFloor(c.Filter, p); c.MinModels > 0 && c.MinModels < floor {
		return c, fieldErr(who, "MinModels", "MinModels %d is below filter %s's floor of %d models at P=%d (more than twice its per-side trim)", c.MinModels, c.Filter.Name(), floor, p)
	}
	if !(c.Participation >= 0 && c.Participation <= 1) { // NaN fails too
		return c, fieldErr(who, "Participation", "Participation must be in [0, 1], got %v", c.Participation)
	}
	if c.sampled() && c.Clients <= c.ID {
		return c, fieldErr(who, "Clients", "Clients must exceed ID to sample participation, got %d", c.Clients)
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.DialAttempts <= 0 {
		c.DialAttempts = 3
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 50 * time.Millisecond
	}
	var kerr *sched.KnobError
	if c.Window, kerr = sched.Knobs(c.Async, c.Window, c.Staleness); kerr != nil {
		return c, fieldErr(who, kerr.Knob, "%w", kerr)
	}
	if c.LatencyScale < 0 || (!c.Async && c.LatencyScale != 0) {
		return c, fieldErr(who, "LatencyScale", "LatencyScale must be non-negative and requires Async mode, got %v", c.LatencyScale)
	}
	if c.Async && c.LatencyScale == 0 {
		c.LatencyScale = sched.DefaultLatencyScale
	}
	return c, nil
}

// sampled reports whether Participation samples this client's rounds.
func (c ClientConfig) sampled() bool { return c.Participation > 0 && c.Participation < 1 }

// RunClient executes the client side of the protocol to completion and
// returns per-round statistics.
func RunClient(cfg ClientConfig) ([]ClientRoundStats, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if cfg.Learner == nil {
		return nil, fmt.Errorf("node: client %d has no learner", cfg.ID)
	}
	p := len(cfg.Servers)
	tolerant := cfg.MinModels > 0
	// role trains, tampers and encodes: the same core.Client the engine
	// runs per client id.
	role := core.NewClient(cfg.ID, cfg.Seed, cfg.Learner, cfg.UploadAttack, cfg.Codec)
	// filter is the same core.Filter the engine runs; its quorum is
	// MinModels, or all P models for a strict client, and it filters
	// serially.
	filter := core.NewFilter(cfg.Filter, cfg.LossOracle, p, cmp.Or(cfg.MinModels, p), 1)

	cm := newClientMetrics(cfg.Obs, cfg.ID, cfg.Filter.Name())
	tm := transport.NewMetrics(cfg.Obs, fmt.Sprintf("c%d", cfg.ID))
	// obsOn gates the wall-clock measurement of the dissemination wait;
	// with observability fully disabled the protocol path never reads
	// the clock.
	obsOn := cfg.Obs != nil || cfg.TraceSink != nil || cfg.Logger != nil
	nodeName := fmt.Sprintf("c%d", cfg.ID)

	conns := make([]*transport.Conn, p)
	defer func() {
		for _, c := range conns {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	markDead := func(i int) {
		if conns[i] != nil {
			_ = conns[i].Close()
			conns[i] = nil
		}
	}

	w0 := cfg.Learner.Params()
	liveCount := 0
	for i, addr := range cfg.Servers {
		conn, err := dialPS(&cfg, i, addr, w0, tm)
		if err != nil {
			if !tolerant {
				return nil, fmt.Errorf("node: client %d: %w", cfg.ID, err)
			}
			continue
		}
		conns[i] = conn
		liveCount++
	}
	if tolerant && liveCount < cfg.MinModels {
		return nil, fmt.Errorf("node: client %d: only %d of %d servers reachable (need ≥ %d)",
			cfg.ID, liveCount, p, cfg.MinModels)
	}

	stats := make([]ClientRoundStats, 0, cfg.Rounds)
	// backlog holds this client's virtually delayed uploads, in origin
	// order (async mode only; see ClientConfig.Async).
	var backlog []backlogged
	for round := 0; round < cfg.Rounds; round++ {
		st := ClientRoundStats{Round: round, UploadedTo: -1}

		// Rejoin restarted servers before the round barrier forms.
		if tolerant && cfg.Redial && round > 0 {
			for i, conn := range conns {
				if conn != nil {
					continue
				}
				cm.redialAttempts.Inc()
				if c, err := dialPS(&cfg, i, cfg.Servers[i], cfg.Learner.Params(), tm); err == nil {
					conns[i] = c
					cm.redialsOK.Inc()
					if cfg.Logger != nil {
						cfg.Logger.Info("client redial", "client", cfg.ID, "round", round, "ps", i)
					}
				}
			}
		}

		// Partial participation: an inactive round skips training and
		// uploads skip frames only — exactly the engine's semantics,
		// over the identical sampled index set (the shared seed makes
		// ActiveClients a pure function both runtimes agree on).
		st.Active = true
		if cfg.sampled() {
			st.Active = false
			for _, id := range core.ActiveClients(cfg.Seed, round, cfg.Clients, cfg.Participation) {
				if id == cfg.ID {
					st.Active = true
					break
				}
			}
		}

		var params []float64
		var uploadEnc compress.Encoding
		var payload []byte // nil: a dense v1 upload
		choice := -1
		if st.Active {
			// Local training stage. The upload is encoded once — full
			// upload sends the same payload to every PS, so error-feedback
			// state advances exactly once either way; an inactive round
			// advances it not at all.
			st.TrainLoss = role.Train(round, cfg.LocalSteps, cfg.Schedule)
			params, uploadEnc, payload = role.Upload()
			if !cfg.FullUpload {
				choice = core.SparseUploadChoice(cfg.Seed, round, cfg.ID, p)
				st.UploadedTo = choice
			}
		}

		// Async virtual straggling: a model whose seeded arrival delay is
		// positive misses its own round's window. It is frozen into the
		// backlog (payload-encoded, so the staleness tag can ride a v2
		// frame later) and the round's marker degrades to a skip; the
		// codec's error-feedback state has already advanced, exactly as
		// in a timely round.
		modelNow := true
		if cfg.Async && st.Active {
			if delay := sched.ArrivalDelay(cfg.Seed, round, cfg.ID, cfg.Window, cfg.LatencyScale); delay > 0 {
				modelNow = false
				b := backlogged{origin: round, due: round + delay, to: choice}
				if payload != nil {
					b.enc, b.data = uploadEnc, append([]byte(nil), payload...)
				} else {
					b.enc, b.data = compress.EncDense, compress.DenseWire(params)
				}
				backlog = append(backlog, b)
			}
		}

		// send puts one upload frame on PS i's connection and reports
		// whether it went out: a failed send is fatal to a strict client
		// and retires the PS on a tolerant one.
		send := func(i int, msg *transport.Message) (bool, error) {
			if conns[i] == nil {
				return false, nil
			}
			if err := conns[i].Send(msg); err != nil {
				if !tolerant {
					return false, fmt.Errorf("node: client %d round %d upload to PS %d: %w", cfg.ID, round, i, err)
				}
				markDead(i)
				return false, nil
			}
			if msg.Flag == 1 {
				st.UploadBytes += msg.ModelWireBytes()
			}
			return true, nil
		}

		// Deliver backlog entries that have come due, before this round's
		// markers so each PS reads stale frames first and the marker still
		// closes its connection's round. The PS rules on admission (the
		// staleness bound lives there); a due entry whose every target
		// died is abandoned.
		kept := backlog[:0]
		for _, b := range backlog {
			if b.due > round {
				kept = append(kept, b)
				continue
			}
			sent := false
			for i := range conns {
				if b.to >= 0 && i != b.to {
					continue
				}
				ok, err := send(i, &transport.Message{
					Type: transport.TypeUpload, Round: uint32(b.origin), Sender: uint32(cfg.ID),
					Flag: 1, Stale: uint8(min(round-b.origin, 255)), Enc: b.enc, Payload: b.data,
				})
				if err != nil {
					return stats, err
				}
				if ok {
					sent = true
					st.StaleUploads++
					cm.staleSent.Inc()
				}
			}
			if !sent {
				st.DroppedUploads++
				cm.uploadsDropped.Inc()
			}
		}
		backlog = kept

		// Model aggregation stage: one real upload (sparse) or P (full);
		// empty skip frames complete the PS-side barrier.
		for i := range conns {
			msg := &transport.Message{
				Type:   transport.TypeUpload,
				Round:  uint32(round),
				Sender: uint32(cfg.ID),
			}
			if st.Active && modelNow && (cfg.FullUpload || i == choice) {
				msg.Flag = 1
				if payload != nil {
					msg.Enc, msg.Payload = uploadEnc, payload
				} else {
					msg.Vec = params
				}
			}
			if _, err := send(i, msg); err != nil {
				return stats, err
			}
		}

		// Model dissemination stage: receive one global model per live
		// PS through the barrier a PS runs on its uploads, so a slow or
		// silent server costs one timeout, not P of them. Each PS's model
		// is its round marker, read under the sync rules: a past-round
		// frame is skipped, a future-round one stays on its connection
		// for the next round, and a strict client fails on either. The
		// client never caps its stragglers.
		rr := &roundReader{
			want: transport.TypeGlobalModel, tolerant: tolerant, skipped: cm.framesSkipped,
			decide: func(origin int) sched.Decision { return sched.DecideAt(sched.Sync, round, origin, 0) },
		}
		var recvStart time.Time
		if obsOn {
			recvStart = time.Now()
		}
		results := barrier(rr, conns, time.Time{})
		var recvWait time.Duration
		if obsOn {
			recvWait = time.Since(recvStart)
		}

		// Model filter over the P' ≤ P models that arrived, in ascending
		// server order (bitwise engine parity when P' = P). Every model
		// must have the client's own dimension: a checksummed model of
		// any other size is a PS lying on the wire, degraded like a
		// malformed payload — it used up that PS's round — by a tolerant
		// client and fatal on a strict one. The filter consumes the
		// payload views directly — sparse or quantized downlinks are
		// never densified per model; the fused kernels gather coordinates
		// out of the views (bit-identical to decode-then-aggregate, see
		// aggregate.Run).
		received := make([]compress.Payload, 0, p)
		from := make([]int, 0, p) // the PS each received model came from
		for i, r := range results {
			if r.conn == nil || (!r.dead && len(r.entries) == 0) {
				continue // no connection, or a missed model: the frame was lost, not the peer
			}
			err := r.err
			if err == nil && r.entries[0].View.Dim() != len(w0) {
				err = fmt.Errorf("global model dimension %d, want %d", r.entries[0].View.Dim(), len(w0))
			}
			switch {
			case err == nil:
				received = append(received, r.entries[0].View)
				from = append(from, i)
				st.DownloadBytes += r.bytes
			case !tolerant:
				return stats, fmt.Errorf("node: client %d round %d recv from PS %d: %w", cfg.ID, round, i, err)
			case r.dead:
				markDead(i)
			default:
				cm.framesSkipped.Inc()
			}
		}
		got := len(received)
		res, err := filter.Apply(received)
		if err != nil {
			return stats, fmt.Errorf("node: client %d round %d: %w", cfg.ID, round, err)
		}
		cfg.Learner.SetParams(res.Out)
		st.ModelsReceived = got
		st.Degraded = got < p
		if cfg.OnRound != nil {
			// Observers see dense vectors; densify only when someone is
			// actually watching.
			dense := make(map[int][]float64, got)
			for j, pl := range received {
				dense[from[j]] = pl.DenseView()
			}
			cfg.OnRound(round, dense, res.Out)
		}
		// The models are dead: the filter's output is its own buffer and
		// SetParams copied it. Their frames' buffers go back to the
		// connections for the next round's models.
		release(results)

		if cfg.EvalEvery > 0 && (round%cfg.EvalEvery == cfg.EvalEvery-1 || round == cfg.Rounds-1) {
			st.TestLoss, st.TestAcc = cfg.Learner.Evaluate()
			st.Evaluated = true
		}
		if cfg.Async {
			st.BacklogDepth = len(backlog)
			cm.backlogDepth.Set(int64(len(backlog)))
		}
		stats = append(stats, st)

		cm.rounds.Inc()
		cm.modelsRecv.Add(int64(got))
		cm.modelsMissed.Add(int64(p - got))
		if st.Degraded {
			cm.degraded.Inc()
		}
		cm.uploadBytes.Add(int64(st.UploadBytes))
		cm.downloadBytes.Add(int64(st.DownloadBytes))
		if res.Fused {
			cm.filterFused.Inc()
		} else {
			cm.filterFallback.Inc()
		}
		cm.oracleEvals.Add(int64(res.OracleEvals))
		cm.recvWait.ObserveDuration(recvWait)
		if cfg.TraceSink != nil || cfg.Logger != nil {
			degraded := 0.0
			if st.Degraded {
				degraded = 1
			}
			fields := map[string]float64{
				"models_received": float64(got),
				"degraded":        degraded,
				"uploaded_to":     float64(st.UploadedTo),
				"train_loss":      st.TrainLoss,
				"upload_bytes":    float64(st.UploadBytes),
				"download_bytes":  float64(st.DownloadBytes),
				"recv_wait_ms":    recvWait.Seconds() * 1e3,
			}
			if cfg.Async {
				fields["stale_uploads"] = float64(st.StaleUploads)
				fields["dropped_uploads"] = float64(st.DroppedUploads)
				fields["backlog_depth"] = float64(st.BacklogDepth)
			}
			obs.Publish(cfg.TraceSink, cfg.Logger, "client round",
				obs.Event{Round: round, Node: nodeName, Name: "client_round", Fields: fields})
		}
	}
	return stats, nil
}
