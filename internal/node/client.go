package node

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
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
	// falls back to trimming over the survivors with the same per-side
	// trim count the full filter would use — the paper's β = B/P
	// semantics, so up to B Byzantine models are still discarded. Keep
	// it ≥ 2B+1 or the degraded filter loses its guarantee. Zero is the
	// strict protocol: all P models required, any fault fatal.
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
	OnRound func(round int, received map[int][]float64, filtered []float64)
	// Codec compresses this client's uploads into v2 codec frames (nil
	// or the dense codec keeps the pre-codec v1 dense frames). Stateful
	// codecs — error feedback — keep their residual in the instance, so
	// it persists across the client's rounds; instances must not be
	// shared between clients.
	Codec compress.Codec
	// AcceptEncodedDownlink advertises v2 decoding support in the hello
	// handshake, letting a PS configured with a downlink codec compress
	// this client's global-model frames. Off by default: the downlink
	// stays dense and the trimmed-mean filter sees exact aggregates.
	AcceptEncodedDownlink bool

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
	// Staleness is the servers' admission bound S, for observability
	// only — the client sends every due backlog entry and lets the PS
	// rule on admission, exactly as the engine accounts drops.
	Staleness int
	// LatencyScale overrides the virtual upload-latency scale (0 means
	// sched.DefaultLatencyScale). Tests use a scale much larger than
	// the window to provoke stale traffic without shrinking the real
	// deadline the federation runs under.
	LatencyScale time.Duration

	// Logger, when non-nil, records one structured line per round (the
	// engine's slog pattern adopted by the distributed runtime).
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
		// Two-frame hello: the first frame stays under the server's
		// hello-phase body cap (no model, just the codec advertisement
		// and — when a key is shared — the connect token that lets a
		// restarted PS re-admit this client statelessly), and the model
		// seed follows as a second TypeHello frame the server reads
		// only after admitting the introduction.
		info := transport.HelloInfo{CodecV2: cfg.AcceptEncodedDownlink}
		if len(cfg.Key) > 0 {
			info.Token = transport.ConnectToken(cfg.Key, cfg.Seed, cfg.ID)
		}
		msg := &transport.Message{
			Type:   transport.TypeHello,
			Sender: uint32(cfg.ID),
			Flag:   uint32(cfg.ID) | transport.HelloSeedFlag,
			Text:   info.Text(),
		}
		seedFrame := &transport.Message{
			Type:   transport.TypeHello,
			Sender: uint32(cfg.ID),
			Flag:   uint32(cfg.ID),
			Vec:    hello,
		}
		if err := conn.Send(msg); err != nil {
			_ = conn.Close()
			lastErr = err
			continue
		}
		if err := conn.Send(seedFrame); err != nil {
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

// recvResult is one PS's contribution to the dissemination barrier.
type recvResult struct {
	model   bool // a global model arrived; pl holds its payload view
	pl      compress.Payload
	bytes   int // model payload bytes on the wire
	missing bool
	dead    bool
	err     error
}

// recvModel reads PS i's round-r global model, skipping corrupt and
// stale frames in tolerant mode. When this round's model was lost and
// the PS has already broadcast a later round, the future frame is
// parked in *pending (consumed first on the next call) instead of
// condemning a healthy connection.
func recvModel(conn *transport.Conn, pending **transport.Message, psID, round, dim int, tolerant bool, skipped *obs.Counter) recvResult {
	for tries := 0; tries < maxBadFrames; tries++ {
		var m *transport.Message
		var err error
		if *pending != nil {
			m, *pending = *pending, nil
		} else {
			m, err = conn.Recv()
		}
		if err != nil {
			if tolerant {
				if errors.Is(err, transport.ErrBadChecksum) || errors.Is(err, transport.ErrBadMAC) ||
					errors.Is(err, transport.ErrBadPayload) {
					skipped.Inc()
					continue
				}
				if isTimeout(err) {
					return recvResult{missing: true, err: err}
				}
			}
			return recvResult{dead: true, err: err}
		}
		if tolerant && m.Type == transport.TypeGlobalModel {
			if int(m.Round) < round {
				// A duplicated or delayed model from an earlier round.
				skipped.Inc()
				continue
			}
			if int(m.Round) > round {
				// This round's model was dropped and the PS moved on.
				// The frame we hold is next round's model: keep it.
				*pending = m
				return recvResult{missing: true,
					err: fmt.Errorf("PS %d already broadcast round %d", psID, m.Round)}
			}
		}
		if m.Type != transport.TypeGlobalModel || int(m.Round) != round {
			return recvResult{dead: true,
				err: fmt.Errorf("unexpected %s (round %d) from PS %d", m.Type, m.Round, psID)}
		}
		pl, err := m.ModelPayload()
		if err == nil && pl.Dim() != dim {
			err = fmt.Errorf("global model dimension %d, want %d", pl.Dim(), dim)
		}
		if err != nil {
			// A checksummed frame with a malformed codec payload or a
			// model of the wrong dimension can only come from a Byzantine
			// PS; treat it like a corrupt frame.
			if tolerant {
				skipped.Inc()
				continue
			}
			return recvResult{dead: true, err: err}
		}
		return recvResult{model: true, pl: pl, bytes: m.ModelWireBytes()}
	}
	return recvResult{missing: true, err: errors.New("too many unreadable frames")}
}

// degradedTrim rebuilds the filter for a round where only got < total
// models arrived. A TrimmedMean keeps its absolute per-side trim count
// from the full federation (⌈β·P⌉ = B), so the degraded round still
// discards up to B Byzantine survivors — the paper's filter semantics
// under partial participation. Other rules apply unchanged.
func degradedTrim(f aggregate.Rule, total, got int) (aggregate.Rule, error) {
	if nf, ok := f.(aggregate.NoFuse); ok {
		// See through the fused-path escape hatch, then restore it: the
		// degraded round must trim like the inner rule while still
		// aggregating on the densify-first fallback.
		inner, err := degradedTrim(nf.Rule, total, got)
		if err != nil {
			return nil, err
		}
		return aggregate.NoFuse{Rule: inner}, nil
	}
	tm, ok := f.(aggregate.TrimmedMean)
	if !ok {
		return f, nil
	}
	m := tm.TrimCount(total)
	if m == 0 {
		return tm, nil
	}
	if 2*m >= got {
		return nil, fmt.Errorf("%d models cannot absorb a trim of %d per side", got, m)
	}
	return aggregate.TrimmedMean{Trim: m, Workers: tm.Workers}, nil
}

// RunClient executes the client side of the protocol to completion and
// returns per-round statistics.
func RunClient(cfg ClientConfig) ([]ClientRoundStats, error) {
	if cfg.Learner == nil || cfg.Filter == nil || cfg.Schedule == nil {
		return nil, fmt.Errorf("node: client %d missing learner, filter or schedule", cfg.ID)
	}
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("node: client %d has no servers", cfg.ID)
	}
	p := len(cfg.Servers)
	if cfg.MinModels > p {
		return nil, fmt.Errorf("node: client %d MinModels %d exceeds P=%d", cfg.ID, cfg.MinModels, p)
	}
	if cfg.Participation < 0 || cfg.Participation > 1 {
		return nil, fmt.Errorf("node: client %d Participation must be in [0, 1], got %v", cfg.ID, cfg.Participation)
	}
	sampled := cfg.Participation > 0 && cfg.Participation < 1
	if sampled && cfg.Clients <= cfg.ID {
		return nil, fmt.Errorf("node: client %d needs Clients > ID to sample participation, got %d", cfg.ID, cfg.Clients)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = 3
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 50 * time.Millisecond
	}
	var kerr *sched.KnobError
	if cfg.Window, kerr = sched.Knobs(cfg.Async, cfg.Window, cfg.Staleness); kerr != nil {
		return nil, fmt.Errorf("node: client %d: %w", cfg.ID, kerr)
	}
	if cfg.LatencyScale < 0 || (!cfg.Async && cfg.LatencyScale != 0) {
		return nil, fmt.Errorf("node: client %d LatencyScale must be non-negative and requires Async mode, got %v", cfg.ID, cfg.LatencyScale)
	}
	if cfg.Async && cfg.LatencyScale == 0 {
		cfg.LatencyScale = sched.DefaultLatencyScale
	}
	tolerant := cfg.MinModels > 0
	if cfg.Codec != nil && cfg.Codec.Name() == "dense" {
		// The identity codec is the nil fast path: uploads stay v1 dense
		// frames, bit-identical to the pre-codec wire.
		cfg.Codec = nil
	}
	// encBuf is reused across rounds for the encoded upload payload.
	var encBuf []byte

	cm := newClientMetrics(cfg.Obs, cfg.ID, cfg.Filter.Name())
	tm := transport.NewMetrics(cfg.Obs, fmt.Sprintf("c%d", cfg.ID))
	// obsOn gates the wall-clock measurement of the dissemination wait;
	// with observability fully disabled the protocol path never reads
	// the clock.
	obsOn := cfg.Obs != nil || cfg.TraceSink != nil || cfg.Logger != nil
	nodeName := fmt.Sprintf("c%d", cfg.ID)

	conns := make([]*transport.Conn, p)
	// pendings[i] parks a future-round model read early from PS i (see
	// recvModel); it never outlives the connection it was read from.
	pendings := make([]*transport.Message, p)
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
		pendings[i] = nil
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
					pendings[i] = nil
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
		if sampled {
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
		choice := -1
		if st.Active {
			var roundStart []float64
			if cfg.UploadAttack != nil {
				roundStart = cfg.Learner.Params()
			}

			// Local training stage.
			st.TrainLoss = cfg.Learner.LocalTrain(cfg.LocalSteps, round*cfg.LocalSteps, cfg.Schedule)
			params = cfg.Learner.Params()

			// A Byzantine client lies in what it sends, not in how it
			// trains.
			if cfg.UploadAttack != nil {
				params = cfg.UploadAttack.TamperUpload(&attack.UploadContext{
					Round:  round,
					Client: cfg.ID,
					Params: params,
					Global: roundStart,
					RNG:    core.UploadAttackRNG(cfg.Seed, round, cfg.ID),
				})
			}

			// The codec runs once per round — full upload sends the same
			// payload to every PS, so error-feedback state advances
			// exactly once either way; an inactive round advances it not
			// at all (the engine encodes only active clients).
			if cfg.Codec != nil {
				uploadEnc, encBuf = cfg.Codec.AppendEncode(encBuf[:0], params)
			}
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
				if cfg.Codec != nil {
					b.enc, b.data = uploadEnc, append([]byte(nil), encBuf...)
				} else {
					b.enc, b.data = compress.EncDense, compress.DenseWire(params)
				}
				backlog = append(backlog, b)
			}
		}

		// Deliver backlog entries that have come due, before this round's
		// markers so each PS reads stale frames first and the marker still
		// closes its connection's round. The PS rules on admission (the
		// staleness bound lives there); a due entry whose every target
		// died is abandoned.
		if cfg.Async && len(backlog) > 0 {
			kept := backlog[:0]
			for _, b := range backlog {
				if b.due > round {
					kept = append(kept, b)
					continue
				}
				stale := round - b.origin
				if stale > 255 {
					stale = 255
				}
				sent := false
				for i, conn := range conns {
					if conn == nil || (b.to >= 0 && i != b.to) {
						continue
					}
					msg := &transport.Message{
						Type:    transport.TypeUpload,
						Round:   uint32(b.origin),
						Sender:  uint32(cfg.ID),
						Flag:    1,
						Stale:   uint8(stale),
						Enc:     b.enc,
						Payload: b.data,
					}
					if err := conn.Send(msg); err != nil {
						if !tolerant {
							return stats, fmt.Errorf("node: client %d round %d stale upload to PS %d: %w", cfg.ID, round, i, err)
						}
						markDead(i)
						continue
					}
					sent = true
					st.UploadBytes += msg.ModelWireBytes()
					st.StaleUploads++
					cm.staleSent.Inc()
				}
				if !sent {
					st.DroppedUploads++
					cm.uploadsDropped.Inc()
				}
			}
			backlog = kept
		}

		// Model aggregation stage: one real upload (sparse) or P (full);
		// empty skip frames complete the PS-side barrier.
		for i, conn := range conns {
			if conn == nil {
				continue
			}
			msg := &transport.Message{
				Type:   transport.TypeUpload,
				Round:  uint32(round),
				Sender: uint32(cfg.ID),
			}
			if st.Active && modelNow && (cfg.FullUpload || i == choice) {
				msg.Flag = 1
				if cfg.Codec != nil {
					msg.Enc, msg.Payload = uploadEnc, encBuf
				} else {
					msg.Vec = params
				}
			}
			if err := conn.Send(msg); err != nil {
				if !tolerant {
					return stats, fmt.Errorf("node: client %d round %d upload to PS %d: %w", cfg.ID, round, i, err)
				}
				markDead(i)
				continue
			}
			if msg.Flag == 1 {
				st.UploadBytes += msg.ModelWireBytes()
			}
		}

		// Model dissemination stage: receive one global model per live
		// PS, in parallel so a slow or silent server costs one timeout,
		// not P of them.
		results := make([]recvResult, p)
		var recvStart time.Time
		if obsOn {
			recvStart = time.Now()
		}
		var wg sync.WaitGroup
		for i, conn := range conns {
			if conn == nil {
				continue
			}
			wg.Add(1)
			go func(i int, conn *transport.Conn) {
				defer wg.Done()
				results[i] = recvModel(conn, &pendings[i], i, round, len(w0), tolerant, cm.framesSkipped)
			}(i, conn)
		}
		wg.Wait()
		var recvWait time.Duration
		if obsOn {
			recvWait = time.Since(recvStart)
		}

		received := make(map[int]compress.Payload, p)
		for i := range conns {
			if conns[i] == nil {
				continue
			}
			r := results[i]
			switch {
			case r.dead || (r.missing && !tolerant):
				if !tolerant {
					return stats, fmt.Errorf("node: client %d round %d recv from PS %d: %w", cfg.ID, round, i, r.err)
				}
				if r.dead {
					markDead(i)
				}
			case r.missing:
				// Keep the connection: the frame was lost, not the peer.
			default:
				received[i] = r.pl
				st.DownloadBytes += r.bytes
			}
		}

		got := len(received)
		if got < p && !tolerant {
			return stats, fmt.Errorf("node: client %d round %d: only %d of %d global models", cfg.ID, round, got, p)
		}
		if tolerant && got < cfg.MinModels {
			return stats, fmt.Errorf("node: client %d round %d: only %d of %d global models (need ≥ %d)",
				cfg.ID, round, got, p, cfg.MinModels)
		}

		// Model filter: trmean over the P' ≤ P received models, in
		// ascending server order (bitwise engine parity when P' = P).
		// The filter consumes the payload views directly — sparse or
		// quantized downlinks are never densified per model; the fused
		// kernels gather coordinates out of the views (bit-identical to
		// decode-then-aggregate, see aggregate.PayloadRule).
		models := make([]compress.Payload, 0, got)
		for i := 0; i < p; i++ {
			if pl, ok := received[i]; ok {
				models = append(models, pl)
			}
		}
		rule := cfg.Filter
		if got < p {
			var err error
			if rule, err = degradedTrim(cfg.Filter, p, got); err != nil {
				return stats, fmt.Errorf("node: client %d round %d: %w", cfg.ID, round, err)
			}
		}
		filtered, filterFused, oracleEvals := aggregate.AggregatePayloadsWithOracle(rule, models, cfg.LossOracle)
		cfg.Learner.SetParams(filtered)
		st.ModelsReceived = got
		st.Degraded = got < p
		if cfg.OnRound != nil {
			// Observers see dense vectors; densify only when someone is
			// actually watching.
			dense := make(map[int][]float64, got)
			for i, pl := range received {
				dense[i] = pl.DenseView()
			}
			cfg.OnRound(round, dense, filtered)
		}

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
		if filterFused {
			cm.filterFused.Inc()
		} else {
			cm.filterFallback.Inc()
		}
		cm.filterDecodeBytes.Add(int64(st.DownloadBytes))
		cm.oracleEvals.Add(int64(oracleEvals))
		cm.recvWait.ObserveDuration(recvWait)
		if cfg.TraceSink != nil {
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
			cfg.TraceSink.Emit(obs.Event{
				Round:  round,
				Node:   nodeName,
				Name:   "client_round",
				Fields: fields,
			})
		}
		if cfg.Logger != nil {
			attrs := []any{
				"client", cfg.ID, "round", round,
				"models", got, "degraded", st.Degraded, "uploaded_to", st.UploadedTo,
				"train_loss", st.TrainLoss,
				"upload_bytes", st.UploadBytes, "download_bytes", st.DownloadBytes,
				"recv_wait_ms", recvWait.Seconds() * 1e3,
			}
			if cfg.Async {
				attrs = append(attrs,
					"stale_uploads", st.StaleUploads,
					"dropped_uploads", st.DroppedUploads,
					"backlog_depth", st.BacklogDepth)
			}
			cfg.Logger.Info("client round", attrs...)
		}
	}
	return stats, nil
}
