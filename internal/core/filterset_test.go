package core

import (
	"math"
	"sync/atomic"
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/nn"
	"fedms/internal/obs"
	"fedms/internal/randx"
)

// countingFilter is the trimmed mean behind a call counter. It is not a
// coordinate rule, so aggregate.Run reaches it through Aggregate, once
// per filter.
type countingFilter struct{ calls *atomic.Int64 }

func (countingFilter) Name() string { return "counting_trmean" }

func (f countingFilter) Aggregate(vecs [][]float64) []float64 {
	f.calls.Add(1)
	return aggregate.TrimmedMean{Beta: 1.0 / 3.0}.Aggregate(vecs)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEngineFiltersEachReceivedSetOnce: the engine filters each
// distinct set of received models once. Unless a Byzantine server
// equivocates, all K clients receive the same P models, so the filter
// runs once per round and every client installs the same bits; an
// equivocating attack sends K sets and the filter runs K times. The
// shared output must be copied into each learner (training one client
// leaves another untouched), and the worker count must not change a
// bit.
func TestEngineFiltersEachReceivedSetOnce(t *testing.T) {
	const k, p, rounds = 5, 3, 3
	for _, tc := range []struct {
		name   string
		atk    attack.Attack
		b      int
		perRnd int64
	}{
		{"noise", attack.Noise{Sigma: 0.5}, 1, 1},
		{"none", attack.None{}, 1, 1},
		{"no Byzantine server", attack.Random{PerClient: true}, 0, 1},
		{"equivocating", attack.Random{PerClient: true}, 1, k},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) []Learner {
				learners, _ := testFixture(t, k, 81)
				var calls atomic.Int64
				cfg := baseConfig(k, p, tc.b, tc.atk, countingFilter{&calls})
				cfg.Rounds = rounds
				cfg.Workers = workers
				eng, err := NewEngine(cfg, learners)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < rounds; r++ {
					before := calls.Load()
					eng.RunRound()
					if n := calls.Load() - before; n != tc.perRnd {
						t.Fatalf("workers=%d round %d: filter ran %d times, want %d", workers, r, n, tc.perRnd)
					}
					if tc.perRnd != 1 {
						continue
					}
					want := learners[0].Params()
					for c := 1; c < k; c++ {
						if !sameBits(learners[c].Params(), want) {
							t.Fatalf("workers=%d round %d: client %d installed other bits than client 0", workers, r, c)
						}
					}
				}
				return learners
			}
			serial, pooled := run(1), run(3)
			for c := range serial {
				if !sameBits(serial[c].Params(), pooled[c].Params()) {
					t.Fatalf("client %d: Workers=1 and Workers=3 ended on different bits", c)
				}
			}
			other := serial[1].Params()
			serial[0].LocalTrain(2, 0, nn.ConstantLR(0.3))
			if !sameBits(serial[1].Params(), other) {
				t.Fatal("training client 0 changed client 1's params: the filtered model is shared, not copied")
			}
		})
	}
}

// TestFilterOracleCountsEvaluationsMade: under a consistent attack the
// engine filters one received set per round, so the filter site of
// fedms_engine_oracle_evals_total counts one FedGreed call's 2P
// evaluations per round, and the two sites together count exactly the
// calls the oracle itself saw.
func TestFilterOracleCountsEvaluationsMade(t *testing.T) {
	const k, p, rounds = 6, 4, 3
	learners, _ := testFixture(t, k, 83)
	var calls atomic.Int64
	cfg := baseConfig(k, p, 1, attack.Noise{Sigma: 0.5}, aggregate.FedGreed{})
	cfg.Rounds = rounds
	cfg.ServerFilter = aggregate.LossCluster{}
	cfg.LossOracle = func(m []float64) float64 {
		calls.Add(1)
		s := 0.0
		for _, v := range m {
			s += v * v
		}
		return s
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	server := reg.Counter(`fedms_engine_oracle_evals_total{site="server"}`).Value()
	filter := reg.Counter(`fedms_engine_oracle_evals_total{site="filter"}`).Value()
	if want := int64(rounds * 2 * p); filter != want {
		t.Fatalf("filter site counted %d oracle evals, want %d (one FedGreed over P=%d per round)", filter, want, p)
	}
	if server == 0 {
		t.Fatal("server site never counted an oracle eval")
	}
	if server+filter != calls.Load() {
		t.Fatalf("counters sum to %d+%d, the oracle saw %d calls", server, filter, calls.Load())
	}
}

// TestDownlinkEncodeDecodeDeterministic: the engine roundtrips each
// received set through the downlink codec once and installs the result
// into every client of the set, which is only what each client would
// have decoded if the roundtrip is a pure function of the vector. So
// every downlink spec Validate accepts must return the same bits and
// byte count on repeated calls, and the randomized specs must be the
// ones it rejects.
func TestDownlinkEncodeDecodeDeterministic(t *testing.T) {
	v := make([]float64, 301)
	randx.Normal(randx.New(5), v, 0, 1)
	v[3], v[4], v[5] = 0, v[7], -v[7] // zeros and magnitude ties
	var specs []string
	for _, body := range []string{"dense", "topk:0.01", "topk:0.3", "topk:1", "randk:0.3", "randk:1", "q1", "q4", "q8", "q16"} {
		specs = append(specs, body)
		if body != "dense" {
			specs = append(specs, "ef+"+body)
		}
	}
	accepted := map[string]bool{}
	for _, s := range specs {
		sp, err := compress.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(4, 3, 1, attack.None{}, aggregate.Mean{})
		cfg.DownlinkCodec = sp
		if _, err := cfg.Validate(); err != nil {
			continue
		}
		accepted[sp.Kind] = true
		a, na, err := sp.EncodeDecode(v)
		if err != nil {
			t.Fatal(err)
		}
		b, nb, err := sp.EncodeDecode(v)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(a, b) || na != nb {
			t.Fatalf("downlink %s: two roundtrips of one vector differ", s)
		}
	}
	for _, kind := range []string{"dense", "topk", "q"} {
		if !accepted[kind] {
			t.Fatalf("Validate rejected every %s downlink spec", kind)
		}
	}
	if accepted["randk"] {
		t.Fatal("Validate accepted a randk downlink")
	}
}
