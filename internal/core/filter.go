package core

import (
	"fmt"

	"fedms/internal/aggregate"
	"fedms/internal/compress"
)

// Filter is a client's model filter (Algorithm 1, lines 12-13): it
// reduces the global models a round delivered to the model the client
// continues from. The engine runs one per distinct received set and a
// distributed client node runs one, so both runtimes filter with the
// same rule, quorum and trim.
type Filter struct {
	rule    aggregate.Rule
	oracle  aggregate.LossEval
	servers int
	workers int // bound of the rule's aggregation goroutines
	// need is the fewest models a round may filter: the quorum, and
	// more than twice the per-side trim.
	need int
	// out is the reused output buffer.
	out []float64
}

// NewFilter returns the filter of a federation with servers parameter
// servers that accepts rounds in which at least quorum models arrive.
// A TrimmedMean (seen through NoFuse) has its per-side trim fixed at
// TrimCount(servers), ⌈β·P⌉ = B for the paper's β = B/P: a full round
// trims exactly as the rule would, and a round in which only P' < P
// models arrive still discards up to B Byzantine ones. Other rules
// apply unchanged to whatever arrived. The rule aggregates on up to
// workers goroutines.
func NewFilter(rule aggregate.Rule, oracle aggregate.LossEval, servers, quorum, workers int) *Filter {
	fixed, _ := fixTrim(rule, servers)
	return &Filter{rule: fixed, oracle: oracle, servers: servers, workers: workers, need: max(quorum, FilterFloor(rule, servers))}
}

// FilterFloor is the fewest global models rule can filter in a
// federation with servers parameter servers: more than twice the
// per-side trim NewFilter fixes (2B+1 for the paper's β = B/P, the
// bound of Lemma 2), and 1 for a rule that does not trim. A filter
// never accepts a round below it, whatever its quorum.
func FilterFloor(rule aggregate.Rule, servers int) int {
	_, trim := fixTrim(rule, servers)
	return 2*trim + 1
}

// fixTrim resolves a TrimmedMean's trim count against n inputs and
// returns the rule and that count (0 for rules that do not trim).
func fixTrim(rule aggregate.Rule, n int) (aggregate.Rule, int) {
	switch r := rule.(type) {
	case aggregate.NoFuse:
		inner, m := fixTrim(r.Rule, n)
		return aggregate.NoFuse{Rule: inner}, m
	case aggregate.TrimmedMean:
		if m := r.TrimCount(n); m > 0 {
			return aggregate.TrimmedMean{Trim: m}, m
		}
	}
	return rule, 0
}

// Apply filters the models that arrived, in ascending server order. It
// rejects a round with fewer models than the quorum, or too few to
// absorb the trim. The result's Out is valid until the next Apply.
func (f *Filter) Apply(received []compress.Payload) (aggregate.Result, error) {
	if len(received) < f.need {
		return aggregate.Result{}, fmt.Errorf("only %d of %d global models (need ≥ %d)", len(received), f.servers, f.need)
	}
	res := aggregate.Run(aggregate.Request{Rule: f.rule, Views: received, Oracle: f.oracle, Dst: f.out, Workers: f.workers})
	f.out = res.Out
	return res, nil
}
