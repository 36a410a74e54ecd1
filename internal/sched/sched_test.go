package sched

import (
	"testing"
	"time"
)

func TestSyncDecisionsMatchBarrierSemantics(t *testing.T) {
	s, err := New(Config{Mode: Sync, Rounds: 10, StartRound: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		origin int
		want   Outcome
	}{
		{3, Accept},
		{4, Defer},
		{9, Defer},
		{2, DropStale},
		{0, DropStale},
	}
	for _, tc := range cases {
		d := s.Decide(tc.origin)
		if d.Outcome != tc.want {
			t.Errorf("sync round 3, origin %d: %v, want %v", tc.origin, d.Outcome, tc.want)
		}
		if tc.want == Accept && d.Weight != 1 {
			t.Errorf("fresh accept weight = %v, want exactly 1", d.Weight)
		}
	}
}

func TestAsyncDecisionsHonorStalenessBound(t *testing.T) {
	s, err := New(Config{Mode: Async, Rounds: 20, StartRound: 5, Window: time.Millisecond, Staleness: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		origin    int
		want      Outcome
		staleness int
	}{
		{5, Accept, 0},
		{6, Defer, 0},
		{4, AcceptStale, 1},
		{3, AcceptStale, 2},
		{2, DropStale, 0},
	}
	for _, tc := range cases {
		d := s.Decide(tc.origin)
		if d.Outcome != tc.want || d.Staleness != tc.staleness {
			t.Errorf("async round 5, origin %d: %+v, want %v staleness %d", tc.origin, d, tc.want, tc.staleness)
		}
		if tc.want == AcceptStale && d.Weight != Weight(tc.staleness) {
			t.Errorf("origin %d weight = %v, want %v", tc.origin, d.Weight, Weight(tc.staleness))
		}
	}
}

func TestWeightIsExactlyOneAtZeroStaleness(t *testing.T) {
	if w := Weight(0); w != 1.0 {
		t.Fatalf("Weight(0) = %v, want exactly 1.0", w)
	}
	prev := 2.0
	for s := 0; s <= 8; s++ {
		w := Weight(s)
		if w <= 0 || w >= prev {
			t.Fatalf("Weight(%d) = %v not in (0, %v)", s, w, prev)
		}
		prev = w
	}
}

func TestAdvanceAndDone(t *testing.T) {
	s, err := New(Config{Mode: Sync, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	var served []int
	for !s.Done() {
		served = append(served, s.Round())
		s.Advance()
	}
	if len(served) != 3 || served[0] != 0 || served[2] != 2 {
		t.Fatalf("served rounds %v, want [0 1 2]", served)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	cases := []Config{
		{Mode: Sync, Rounds: 0},
		{Mode: Sync, Rounds: 5, StartRound: -1},
		{Mode: Sync, Rounds: 5, StartRound: 6},
		{Mode: Sync, Rounds: 5, Window: time.Second},
		{Mode: Sync, Rounds: 5, Staleness: 1},
		{Mode: Async, Rounds: 5},
		{Mode: Async, Rounds: 5, Window: time.Second, Staleness: -1},
		{Mode: Mode(7), Rounds: 5},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) accepted, want error", i, cfg)
		}
	}
}

func TestArrivalDelayDeterministicAndBounded(t *testing.T) {
	const seed = 42
	window := 100 * time.Millisecond
	scale := DefaultLatencyScale
	seen := map[int]int{}
	for r := 0; r < 5; r++ {
		for c := 0; c < 20; c++ {
			d1 := ArrivalDelay(seed, r, c, window, scale)
			d2 := ArrivalDelay(seed, r, c, window, scale)
			if d1 != d2 {
				t.Fatalf("ArrivalDelay(r=%d,c=%d) nondeterministic: %d vs %d", r, c, d1, d2)
			}
			max := int(scale / window)
			if d1 < 0 || d1 > max {
				t.Fatalf("delay %d outside [0,%d]", d1, max)
			}
			seen[d1]++
		}
	}
	if len(seen) < 3 {
		t.Fatalf("delays show no spread: %v", seen)
	}
	// A window at least as long as the latency scale admits everything
	// fresh — that is the async≡sync collapse the engine tests rely on.
	for c := 0; c < 50; c++ {
		if d := ArrivalDelay(seed, 0, c, scale, scale); d != 0 {
			t.Fatalf("window == scale must give delay 0, got %d for client %d", d, c)
		}
	}
}

// TestSortIsCanonicalMemberOrder pins the one definition of member
// order: ascending client, then origin, whatever order the readers and
// the spill replay delivered the entries in — and Members keeps views
// and weights aligned with it.
func TestSortIsCanonicalMemberOrder(t *testing.T) {
	entries := []Entry{
		{Client: 2, Origin: 5, Weight: 1},
		{Client: 0, Origin: 5, Weight: 1},
		{Client: 2, Origin: 3, Stale: 2, Weight: Weight(2)},
		{Client: 1, Origin: 4, Stale: 1, Weight: Weight(1)},
	}
	Sort(entries)
	want := [][2]int{{0, 5}, {1, 4}, {2, 3}, {2, 5}}
	for i, e := range entries {
		if e.Client != want[i][0] || e.Origin != want[i][1] {
			t.Fatalf("entry %d = (client %d, origin %d), want %v", i, e.Client, e.Origin, want[i])
		}
	}
	views, weights := Members(entries)
	if len(views) != len(entries) || len(weights) != len(entries) {
		t.Fatalf("Members returned %d views, %d weights for %d entries", len(views), len(weights), len(entries))
	}
	for i, e := range entries {
		if weights[i] != e.Weight {
			t.Fatalf("weight %d = %v, want %v", i, weights[i], e.Weight)
		}
	}
	if Compare(1, 9, 2, 0) >= 0 || Compare(2, 3, 2, 5) >= 0 || Compare(2, 5, 2, 5) != 0 {
		t.Fatal("Compare is not (client, origin) lexicographic")
	}
}
