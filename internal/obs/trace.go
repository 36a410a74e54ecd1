package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"sync"
)

// Event is one structured trace record: what one node observed in one
// round. Fields carry the numeric payload (counts, byte totals,
// millisecond timings); encoding/json sorts map keys, so a marshalled
// event is deterministic for deterministic field values.
type Event struct {
	Round  int                `json:"round"`
	Node   string             `json:"node"`
	Name   string             `json:"event"`
	Fields map[string]float64 `json:"fields,omitempty"`
}

// DefaultTraceLimit bounds an unconfigured trace: at one PS event and
// K client events per round it covers days of continuous training
// before dropping anything.
const DefaultTraceLimit = 1 << 16

// Trace is a bounded, concurrency-safe buffer of Events. Nodes emit
// one event per round; the buffer never grows past its limit (extra
// events are counted, not stored), so a trace left attached to a
// long-lived federation cannot exhaust memory. A nil *Trace is valid
// and drops everything, which is the disabled fast path.
type Trace struct {
	mu      sync.Mutex
	events  []Event
	limit   int
	dropped int64
}

// NewTrace returns a trace bounded to limit events; limit <= 0 means
// DefaultTraceLimit.
func NewTrace(limit int) *Trace {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &Trace{limit: limit}
}

// Emit records one event. Non-finite field values are dropped from
// the event (JSON cannot carry them); a full trace counts the event
// as dropped instead of growing. No-op on a nil receiver.
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	for k, v := range e.Fields {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(e.Fields, k)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Len returns the number of buffered events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events were discarded because the trace
// was full.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the buffered events sorted by
// (Round, Node, Name). Concurrent emitters interleave
// nondeterministically in the buffer; the sort restores a stable
// order so exports of the same run compare equal.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Name < b.Name
	})
	return out
}

// WriteJSONL writes the sorted events one JSON object per line. If
// events were dropped, a final `trace_truncated` record reports how
// many, so a reader knows the file is incomplete rather than the run
// being short.
func (t *Trace) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	if d := t.Dropped(); d > 0 {
		if err := enc.Encode(Event{Name: "trace_truncated", Fields: map[string]float64{"dropped": float64(d)}}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the trace as JSONL (see WriteJSONL) to a new file at
// path, replacing any file already there.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSONL(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
