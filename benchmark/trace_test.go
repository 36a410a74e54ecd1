package main

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
)

// validateTrace is the trace contract: ids are unique, every parent
// resolves, children lie inside their parents, and no span's self time
// is negative.
func validateTrace(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("empty trace")
	}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span id %d is zero or repeated", s.ID)
		}
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s): parent %d does not resolve", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s %s round %d) [%d,%d] lies outside parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Node, s.Round, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if s.Round != p.Round {
			t.Fatalf("span %d is in round %d, its parent in round %d", s.ID, s.Round, p.Round)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Fatalf("span %d (%s) has self time %d ns", id, byID[id].Name, self)
		}
	}
}

func readTrace(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

func TestBuildTraceAndSelfTimes(t *testing.T) {
	// Two clients, two overlapping rounds; client 0's exchange holds a
	// setparams child, referenced by local index.
	c0 := []span{
		{Name: "client.train", Start: 0, End: 10, Round: 0, Node: "c0"},
		{Name: "client.exchange", Start: 10, End: 30, Round: 0, Node: "c0"},
		{Name: "client.setparams", Start: 25, End: 30, Round: 0, Node: "c0", Parent: 2},
		{Name: "client.train", Start: 30, End: 40, Round: 1, Node: "c0"},
	}
	c1 := []span{
		{Name: "client.train", Start: 5, End: 20, Round: 0, Node: "c1"},
		{Name: "client.exchange", Start: 20, End: 35, Round: 0, Node: "c1"},
		{Name: "client.train", Start: 35, End: 50, Round: 1, Node: "c1"},
	}
	spans := buildTrace("round", nil, [][]span{c0, c1})
	validateTrace(t, spans)

	if r0 := spans[0]; r0.Name != "round" || r0.Start != 0 || r0.End != 35 {
		t.Fatalf("round 0 root = %+v, want [0,35]", r0)
	}
	self := selfTimes(spans)
	// Round 0 is covered by its children throughout: trains and
	// exchanges overlap, the union counts once.
	if self[1] != 0 {
		t.Fatalf("round 0 self = %d, want 0", self[1])
	}
	byName := map[string]int64{}
	for _, s := range spans {
		byName[s.Name+"/"+s.Node] += self[s.ID]
	}
	if got := byName["client.exchange/c0"]; got != 15 {
		t.Fatalf("c0 exchange self = %d, want 20 - 5 of setparams", got)
	}
	// Round 1: [30,50], both trains cover [30,50].
	if self[2] != 0 {
		t.Fatalf("round 1 self = %d, want 0", self[2])
	}
}
