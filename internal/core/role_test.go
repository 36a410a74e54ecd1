package core

import (
	"errors"
	"slices"
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/compress"
	"fedms/internal/nn"
	"fedms/internal/sched"
)

// historyProbe is a consistent attack that records how many history
// entries each Tamper call saw and sends the honest aggregate.
type historyProbe struct{ seen *[]int }

func (historyProbe) Name() string      { return "history_probe" }
func (historyProbe) Equivocates() bool { return false }
func (p historyProbe) Tamper(ctx *attack.Context) []float64 {
	*p.seen = append(*p.seen, len(ctx.History))
	return slices.Clone(ctx.TrueAgg)
}

// members wraps dense vectors as one round's fresh admitted set.
func members(round int, vecs ...[]float64) []sched.Entry {
	out := make([]sched.Entry, len(vecs))
	for k, v := range vecs {
		out[k] = sched.Entry{Client: k, Origin: round, Weight: 1, View: compress.DensePayload(v)}
	}
	return out
}

func TestRoleServer(t *testing.T) {
	w0 := []float64{5, 5, 5}
	up := [][]float64{{0, 0, 0}, {2, 4, 6}}

	t.Run("empty round returns an unaliased copy", func(t *testing.T) {
		seed := slices.Clone(w0)
		s := NewServer(0, 1, aggregate.Mean{}, nil, 1, nil, seed)
		seed[0] = 99
		if res, err := s.Aggregate(nil); err != nil || !slices.Equal(res.Out, w0) {
			t.Fatalf("Aggregate(nil) = %v, %v; want w_0", res.Out, err)
		}
		s.Aggregate(members(1, up...)) // {1, 2, 3}, into the benign buffer
		empty, _ := s.Aggregate(nil)
		s.Aggregate(members(3, up[0])) // overwrites the buffer
		if !slices.Equal(empty.Out, []float64{1, 2, 3}) {
			t.Fatalf("empty-round aggregate changed to %v: it aliases the reused buffer", empty.Out)
		}
	})

	t.Run("one-member round never aliases the member", func(t *testing.T) {
		// A runtime hands a member's buffer back for the next round's
		// upload once Aggregate returns, so the aggregate — which the
		// server keeps and re-sends — must be its own memory under every
		// rule, even when it equals its only input.
		for _, spec := range []string{"mean", "trim:0.2", "median", "krum:0", "geomedian", "fedgreed", "losscluster"} {
			rule, err := aggregate.ParseRule(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, atk := range []attack.Attack{nil, historyProbe{new([]int)}} {
				s := NewServer(0, 1, rule, nil, 1, atk, w0)
				member := slices.Clone(up[1])
				res, err := s.Aggregate(members(0, member))
				if err != nil {
					t.Fatal(err)
				}
				if &res.Out[0] == &member[0] {
					t.Fatalf("%s (attack %v): the aggregate aliases its one member", spec, atk)
				}
				want := slices.Clone(res.Out)
				copy(member, up[0]) // the next upload lands in the released buffer
				if got := s.Send(1, -1, nil); !slices.Equal(got, want) {
					t.Fatalf("%s (attack %v): sent %v after the member's buffer was reused, want %v", spec, atk, got, want)
				}
			}
		}
	})

	t.Run("no seed", func(t *testing.T) {
		s := NewServer(0, 1, aggregate.Mean{}, nil, 1, nil, nil)
		if _, err := s.Aggregate(nil); !errors.Is(err, ErrNoAggregate) {
			t.Fatalf("err = %v, want ErrNoAggregate", err)
		}
	})

	t.Run("benign server reuses its buffer", func(t *testing.T) {
		s := NewServer(0, 1, aggregate.Mean{}, nil, 1, nil, w0)
		a, _ := s.Aggregate(members(0, up...))
		b, _ := s.Aggregate(members(1, up...))
		if &a.Out[0] != &b.Out[0] || !slices.Equal(b.Out, []float64{1, 2, 3}) {
			t.Fatalf("second aggregate %v does not reuse the first's buffer", b.Out)
		}
		if got := s.Send(1, 4, nil); &got[0] != &b.Out[0] {
			t.Fatal("a benign server must send its aggregate")
		}
	})

	t.Run("byzantine history", func(t *testing.T) {
		var seen []int
		s := NewServer(2, 1, aggregate.Mean{}, nil, 1, historyProbe{&seen}, w0)
		rounds := [][]sched.Entry{members(0, up...), nil, members(2, up[1]), nil}
		for r, m := range rounds {
			res, err := s.Aggregate(m)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.history) != r+1 || &s.history[r][0] != &res.Out[0] {
				t.Fatalf("round %d: history has %d entries, want %d ending in this aggregate", r, len(s.history), r+1)
			}
			s.Send(r, -1, nil)
			if seen[r] != r {
				t.Fatalf("Send at round %d saw %d history entries, want %d", r, seen[r], r)
			}
		}
	})

	t.Run("attack streams", func(t *testing.T) {
		consistent := attack.Random{}
		s := NewServer(1, 7, aggregate.Mean{}, nil, 1, consistent, w0)
		s.Aggregate(members(0, up...))
		s.Aggregate(members(1, up...))
		want := consistent.Tamper(&attack.Context{
			Round: 1, Server: 1, Client: -1, TrueAgg: s.last, History: s.history[:1],
			RNG: AttackRNG(7, 1, 1, -1, false),
		})
		if got := s.Send(1, -1, nil); !slices.Equal(got, want) {
			t.Fatalf("Send(-1) = %v, want the consistent stream's %v", got, want)
		}

		e := NewServer(1, 7, aggregate.Mean{}, nil, 1, attack.Random{PerClient: true}, w0)
		e.Aggregate(members(0, up...))
		if a, b := e.Send(0, 0, nil), e.Send(0, 1, nil); slices.Equal(a, b) {
			t.Fatal("an equivocating attack sent two clients the same model")
		}
	})
}

func TestRoleClient(t *testing.T) {
	const steps = 2
	schedule := nn.ConstantLR(0.3)

	t.Run("byzantine client trains honestly", func(t *testing.T) {
		honestL, _ := testFixture(t, 1, 5)
		byzL, _ := testFixture(t, 1, 5)
		honest := NewClient(0, 5, honestL[0], nil, nil)
		byz := NewClient(0, 5, byzL[0], attack.UploadRandom{}, nil)
		for r := 0; r < 3; r++ {
			if a, b := honest.Train(r, steps, schedule), byz.Train(r, steps, schedule); a != b {
				t.Fatalf("round %d: losses %v and %v differ", r, a, b)
			}
			hp, _, _ := honest.Upload()
			bp, _, payload := byz.Upload()
			if !slices.Equal(hp, honestL[0].Params()) || !slices.Equal(byzL[0].Params(), honestL[0].Params()) {
				t.Fatalf("round %d: the Byzantine client's training state diverged from the honest one", r)
			}
			lie := attack.UploadRandom{}.TamperUpload(&attack.UploadContext{Round: r, Params: hp, RNG: uploadAttackRNG(5, r, 0)})
			if payload != nil || !slices.Equal(bp, lie) || slices.Equal(bp, hp) {
				t.Fatalf("round %d: upload %v is not the dense seeded random draw %v", r, bp[:1], lie[:1])
			}
		}
	})

	t.Run("codec state advances once per Train", func(t *testing.T) {
		spec, err := compress.ParseSpec("ef+topk:0.1")
		if err != nil {
			t.Fatal(err)
		}
		codec, _ := spec.NewCodec(ClientCodecSeed(3, 0))
		ref, _ := spec.NewCodec(ClientCodecSeed(3, 0))
		learners, _ := testFixture(t, 1, 3)
		c := NewClient(0, 3, learners[0], nil, codec)
		for r := 0; r < 3; r++ {
			c.Train(r, steps, schedule)
			params, enc, payload := c.Upload()
			wantEnc, want := ref.AppendEncode(nil, params)
			if enc != wantEnc || !slices.Equal(payload, want) {
				t.Fatalf("round %d: payload differs from one encode per round", r)
			}
			if _, _, again := c.Upload(); &again[0] != &payload[0] {
				t.Fatal("Upload re-encoded")
			}
		}
	})
}
