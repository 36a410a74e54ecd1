package sched

import (
	"testing"
	"time"

	"fedms/internal/compress"
	"fedms/internal/spill"
)

// TestReplay: at round 5 with staleness 2, a record is admitted with
// its decision's weight, requeued when not yet due or deferred, and
// dropped when past the bound or unparseable; requeued ones keep their
// order.
func TestReplay(t *testing.T) {
	s, err := New(Config{Mode: Async, Rounds: 10, StartRound: 5, Window: time.Second, Staleness: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Replay(nil, nil); n != 0 || err != nil {
		t.Fatalf("nil buffer: %d, %v", n, err)
	}
	buf := spill.New(spill.Config{Dir: t.TempDir()})
	defer buf.Close()
	dense := compress.DenseWire([]float64{1, 2})
	for _, rec := range []spill.Record{
		{Client: 0, Server: 1, Origin: 4, Due: 5, Data: dense},     // admitted, staleness 1
		{Client: 1, Server: 0, Origin: 4, Due: 6, Data: dense},     // not yet due
		{Client: 2, Server: 0, Origin: 6, Due: 5, Data: dense},     // deferred origin
		{Client: 3, Server: 0, Origin: 2, Due: 5, Data: dense},     // past the bound
		{Client: 4, Server: 0, Origin: 5, Due: 5, Data: dense[1:]}, // does not parse
	} {
		if err := buf.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	var got []Entry
	var servers []int
	dropped, err := s.Replay(buf, func(server int, e Entry) {
		servers, got = append(servers, server), append(got, e)
	})
	if err != nil || dropped != 2 {
		t.Fatalf("dropped %d, %v; want 2", dropped, err)
	}
	if len(got) != 1 || servers[0] != 1 || got[0].Client != 0 || got[0].Stale != 1 || got[0].Weight != Weight(1) || got[0].View.Dim() != 2 {
		t.Fatalf("admitted %+v to servers %v", got, servers)
	}
	for _, want := range []int{1, 2} {
		rec, ok, err := buf.Pop()
		if !ok || err != nil || rec.Client != want {
			t.Fatalf("requeued record = client %d (%v, %v), want %d", rec.Client, ok, err, want)
		}
	}
}
