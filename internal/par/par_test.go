package par

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// TestFor checks the partition contract: every index of [0, n) is
// visited exactly once, in contiguous ranges of at most ceil(n/workers)
// indices, and workers ≤ 1 makes one inline fn(0, n) call.
func TestFor(t *testing.T) {
	type span struct{ lo, hi int }
	for n := 0; n <= 64; n++ {
		for _, workers := range []int{0, 1, 2, 3, 7, 100} {
			var mu sync.Mutex
			var spans []span
			seen := make([]int, n)
			For(n, workers, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				spans = append(spans, span{lo, hi})
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
			if workers <= 1 {
				if len(spans) != 1 || spans[0] != (span{0, n}) {
					t.Fatalf("n=%d workers=%d: want one call fn(0, %d), got %v", n, workers, n, spans)
				}
				continue
			}
			limit := max(1, (n+workers-1)/workers)
			sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
			for _, s := range spans {
				if s.hi-s.lo > limit || (n > 0 && s.hi <= s.lo) {
					t.Fatalf("n=%d workers=%d: range %v, want 1..%d indices", n, workers, s, limit)
				}
			}
		}
	}
}

// TestForAllocs: a serial call allocates nothing and a parallel
// fan-out at most the run state and its bound method value. The race
// runtime's shadow allocations make the count meaningless there, so
// make verify runs this in its no-race allocation stage.
func TestForAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	out := make([]int, 64)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = i
		}
	}
	if a := testing.AllocsPerRun(100, func() { For(len(out), 1, fn) }); a != 0 {
		t.Fatalf("serial For allocates %v objects, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { For(len(out), 4, fn) }); a > 2 {
		t.Fatalf("parallel For allocates %v objects, want ≤ 2", a)
	}
}

var sink []float64

// BenchmarkFor times one fork-join over a cheap per-index body, so the
// number is dominated by the fan-out and join themselves.
func BenchmarkFor(b *testing.B) {
	out := make([]float64, 1<<12)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] += 1
		}
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				For(len(out), workers, fn)
			}
		})
	}
	sink = out
}
