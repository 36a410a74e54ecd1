package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"fedms/internal/compress"
	"fedms/internal/core"
	"fedms/internal/nn"
)

// span is one trace record. Spans of one round share Round; a root has
// Parent 0.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Node   string `json:"node"`
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// probe observes one repetition from outside the program: the wrappers
// below report into it from the clients' own goroutines. Everything a
// timed (untraced) repetition needs is a few clock reads per client per
// round; spans and captures are recorded only when traced.
type probe struct {
	k, rounds, warm int
	traced          bool
	epoch           time.Time

	// Loopback federations find round boundaries here: the last client
	// to enter its first LocalTrain ends set-up, the last client to
	// apply round r's filtered model ends round r.
	entered  atomic.Int32
	setupEnd int64
	done     []atomic.Int32
	roundEnd []int64
	cpuWarm  float64 // CPU clock when the last warm-up round ended
	cpuEnd   float64

	// engineRound is the round the engine is running (the engine has no
	// per-client round loop to count); -1 during construction.
	engine      bool
	engineRound atomic.Int32

	// firstTrain, when set, runs on a loopback client's goroutine as it
	// enters its first LocalTrain: the client has sent its hellos and
	// nothing else.
	firstTrain func(id int)

	cap *capture
}

func newProbe(k, rounds, warm int, traced bool) *probe {
	return &probe{
		k: k, rounds: rounds, warm: warm, traced: traced, epoch: time.Now(),
		done: make([]atomic.Int32, rounds), roundEnd: make([]int64, rounds),
	}
}

func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

// probedLearner wraps a client's core.Learner: the thin outside-in
// wrapper around the interface the runtime already accepts. One
// goroutine drives a learner at a time, so its fields need no lock.
type probedLearner struct {
	core.Learner
	p    *probe
	id   int
	node string

	round   int  // loopback: rounds this client has completed
	trained bool // loopback: first LocalTrain seen

	// Traced only: wall-clock sums over the timed rounds.
	trainNS, setNS, exchNS int64
	exchStart              int64 // where client.exchange begins: train or encode end
	spans                  []span
}

func (l *probedLearner) curRound() int {
	if l.p.engine {
		return int(l.p.engineRound.Load())
	}
	return l.round
}

func (l *probedLearner) timed(r int) bool { return r >= l.p.warm }

// add records a span whose Parent is a local reference: 0 attaches to
// the round's root, n > 0 to this learner's n-th span.
func (l *probedLearner) add(name string, start, end int64, r, parent int) int {
	l.spans = append(l.spans, span{Name: name, Start: start, End: end, Round: r, Node: l.node, Parent: parent})
	return len(l.spans)
}

func (l *probedLearner) LocalTrain(steps, globalStep int, sc nn.Schedule) float64 {
	p := l.p
	if !p.engine && !l.trained {
		l.trained = true
		if p.firstTrain != nil {
			p.firstTrain(l.id)
		}
		if int(p.entered.Add(1)) == p.k {
			p.setupEnd = p.now()
		}
	}
	if !p.traced {
		return l.Learner.LocalTrain(steps, globalStep, sc)
	}
	r := l.curRound()
	start := p.now()
	loss := l.Learner.LocalTrain(steps, globalStep, sc)
	end := p.now()
	l.add("client.train", start, end, r, 0)
	if l.timed(r) {
		l.trainNS += end - start
	}
	l.exchStart = end
	return loss
}

// Params is what the runtime uploads: on the capture round (never round
// 0, whose first call fetches w_0 for the hello) the trained model is
// kept for the replays.
func (l *probedLearner) Params() []float64 {
	w := l.Learner.Params()
	if c := l.p.cap; c != nil && l.curRound() == c.round {
		c.params[l.id] = append([]float64(nil), w...)
	}
	return w
}

func (l *probedLearner) SetParams(w []float64) {
	p := l.p
	r := l.curRound()
	if r < 0 { // engine construction aligning w_0
		l.Learner.SetParams(w)
		return
	}
	start := p.now()
	l.Learner.SetParams(w)
	end := p.now()
	if p.traced {
		parent := 0
		if !p.engine {
			parent = l.add("client.exchange", l.exchStart, end, r, 0)
			if l.timed(r) {
				l.exchNS += end - l.exchStart
			}
		}
		l.add("client.setparams", start, end, r, parent)
		if l.timed(r) {
			l.setNS += end - start
		}
		if c := p.cap; c != nil && r == c.round && l.id == 0 {
			c.filtered = append([]float64(nil), w...)
		}
	}
	if p.engine {
		return
	}
	l.round++
	if int(p.done[r].Add(1)) == p.k {
		p.roundEnd[r] = end
		switch r {
		case p.warm - 1:
			p.cpuWarm = cpuSeconds()
		case p.rounds - 1:
			p.cpuEnd = cpuSeconds()
		}
	}
}

// probedCodec wraps a client's upload codec (traced repetitions only).
// It runs on its learner's goroutine, between LocalTrain and SetParams.
// The span is for the trace only: a top-k encode at d=1e5 burns ~40 ms
// of CPU and is preempted several times among eight clients on two
// cores, so its wall-clock is three times its busy time. That comes from
// the replay instead.
type probedCodec struct {
	compress.Codec
	l       *probedLearner
	encByte int64
}

func (c *probedCodec) AppendEncode(dst []byte, v []float64) (compress.Encoding, []byte) {
	l := c.l
	r := l.curRound()
	start := l.p.now()
	enc, out := c.Codec.AppendEncode(dst, v)
	end := l.p.now()
	l.add("client.encode", start, end, r, 0)
	l.exchStart = end
	if l.timed(r) {
		c.encByte += int64(len(out) - len(dst))
	}
	if cp := l.p.cap; cp != nil && cp.uploads[r] != nil {
		cp.uploads[r][l.id] = encoded{enc: enc, data: append([]byte(nil), out[len(dst):]...)}
	}
	return enc, out
}

// buildTrace merges per-node spans under their round roots and assigns
// ids. roots[r] is round r's root; a nil roots derives each root from
// the extent of its children (rounds of a loopback federation overlap:
// a fast client trains round r+1 while a slow one still applies r).
func buildTrace(rootName string, roots []span, perNode [][]span) []span {
	if roots == nil {
		for _, ss := range perNode {
			for _, s := range ss {
				for len(roots) <= s.Round {
					roots = append(roots, span{Name: rootName, Round: len(roots), Start: -1})
				}
				r := &roots[s.Round]
				if r.Start < 0 || s.Start < r.Start {
					r.Start = s.Start
				}
				if s.End > r.End {
					r.End = s.End
				}
			}
		}
	}
	out := make([]span, 0, len(roots))
	for i, r := range roots {
		r.ID, r.Parent = i+1, 0
		out = append(out, r)
	}
	for _, ss := range perNode {
		base := len(out)
		for _, s := range ss {
			s.ID = len(out) + 1
			if s.Parent == 0 {
				s.Parent = s.Round + 1
			} else {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (children may overlap: the
// union counts once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name, in seconds per round.
func selfByName(spans []span, rounds int) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9 / float64(rounds)
	}
	return out
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
