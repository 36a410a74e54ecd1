package core

import (
	"errors"
	"slices"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/sched"
)

// ErrNoAggregate reports a round in which a server admitted no upload
// and has no earlier aggregate to send in its place.
var ErrNoAggregate = errors.New("core: no uploads and no previous aggregate")

// Server is one parameter server of Algorithm 1: it aggregates the
// uploads its round admitted (lines 3-4, 11) and sends each client its
// model (line 5) — the honest aggregate, or, when it is Byzantine, what
// its attack makes of it. The engine runs one per server id and a
// distributed PS runs one, so both runtimes share every step that is
// not transport.
type Server struct {
	id      int
	seed    uint64
	rule    aggregate.Rule
	oracle  aggregate.LossEval
	workers int           // bound of the rule's aggregation goroutines
	attack  attack.Attack // nil: benign

	// last is the latest aggregate, re-sent when a round admits nothing.
	last []float64
	// buf is a benign server's reused output buffer: nothing retains a
	// benign aggregate past its round, so the rule writes in place.
	buf []float64
	// views and weights are the member slices Aggregate hands the rule,
	// reused across rounds: Run retains neither.
	views   []compress.Payload
	weights []float64
	// history holds a Byzantine server's honest aggregates, this round's
	// last; only the attack reads it, so a benign server keeps none.
	history [][]float64
}

// NewServer returns server id of a federation seeded with seed, whose
// rule aggregates on up to workers goroutines. atk nil makes it benign.
// last, when non-empty, is copied as the aggregate an empty first round
// falls back to (the shared initial model, or a restarted server's
// checkpoint).
func NewServer(id int, seed uint64, rule aggregate.Rule, oracle aggregate.LossEval, workers int, atk attack.Attack, last []float64) *Server {
	s := &Server{id: id, seed: seed, rule: rule, oracle: oracle, workers: workers, attack: atk}
	if len(last) > 0 {
		s.last = slices.Clone(last)
	}
	return s
}

// Dim returns the dimension of the server's latest aggregate, 0 before
// it has one.
func (s *Server) Dim() int { return len(s.last) }

// Aggregate reduces one round's admitted members, in the order given,
// with the server rule. With no members it returns a copy of the latest
// aggregate, or ErrNoAggregate when there is none. The result's Out is
// valid until the next Aggregate on a benign server.
func (s *Server) Aggregate(members []sched.Entry) (aggregate.Result, error) {
	var res aggregate.Result
	if len(members) == 0 {
		if s.last == nil {
			return res, ErrNoAggregate
		}
		res.Out = slices.Clone(s.last)
	} else {
		req := aggregate.Request{Rule: s.rule, Oracle: s.oracle, Workers: s.workers}
		s.views, s.weights = sched.Members(s.views, s.weights, members)
		req.Views, req.Weights = s.views, s.weights
		if s.attack == nil {
			req.Dst = s.buf
		}
		res = aggregate.Run(req)
		clear(s.views) // the views alias this round's uploads
		if s.attack == nil {
			s.buf = res.Out
		}
	}
	s.last = res.Out
	if s.attack != nil {
		s.history = append(s.history, res.Out)
	}
	return res, nil
}

// Send returns the model the server sends client in round after that
// round's Aggregate: the aggregate itself from a benign server; from a
// Byzantine one, its attack applied on AttackRNG(seed, id, round,
// client, client >= 0), with the honest aggregates of the earlier
// rounds as history. client -1 is the one model a consistent attack
// sends to every client. benign carries the benign servers' aggregates
// where the runtime can see them (attack.Context.BenignAggs). Safe for
// concurrent calls with distinct clients.
func (s *Server) Send(round, client int, benign [][]float64) []float64 {
	if s.attack == nil {
		return s.last
	}
	return s.attack.Tamper(&attack.Context{
		Round:      round,
		Server:     s.id,
		Client:     client,
		TrueAgg:    s.last,
		History:    s.history[:len(s.history)-1],
		BenignAggs: benign,
		RNG:        AttackRNG(s.seed, s.id, round, client, client >= 0),
	})
}
