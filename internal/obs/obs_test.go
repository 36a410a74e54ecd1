package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(`x_total{n="1"}`)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
			c.Add(10)
			c.Add(-5) // ignored: counters only go up
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1010 {
		t.Fatalf("counter = %d, want %d", got, 8*1010)
	}
	if again := r.Counter(`x_total{n="1"}`); again != c {
		t.Fatal("same name must return the same counter")
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("g")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	g.SetMax(2)
	g.SetMax(9)
	g.SetMax(5)
	if g.Value() != 9 {
		t.Fatalf("high-water gauge = %d, want 9", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, math.NaN(), math.Inf(1)} {
		h.Observe(v)
	}
	// NaN and +Inf are dropped; 0.5 and 1 land in le=1 (cumulative 2),
	// 5 in le=10 (cum 3), 50 in le=100 (cum 4), 500 in +Inf (cum 5).
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if want := 0.5 + 1 + 5 + 50 + 500; h.Sum() != want {
		t.Fatalf("sum = %g, want %g", h.Sum(), want)
	}
	var buf bytes.Buffer
	reg := NewRegistry()
	h2 := reg.Histogram(`lat{n="a"}`, []float64{1})
	h2.Observe(0.5)
	h2.ObserveDuration(2 * time.Second)
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lat histogram",
		`lat_bucket{n="a",le="1"} 1`,
		`lat_bucket{n="a",le="+Inf"} 2`,
		`lat_sum{n="a"} 2.5`,
		`lat_count{n="a"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewRegistry().Histogram("h", []float64{0.5})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-2000) > 1e-9 {
		t.Fatalf("sum = %g, want 2000", h.Sum())
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter(`fedms_ps_rounds_served_total{ps="1"}`).Add(3)
	r.Counter(`fedms_ps_rounds_served_total{ps="0"}`).Add(2)
	r.Gauge("fedms_round").Set(9)
	r.Histogram("fedms_wait_seconds", []float64{1}).Observe(0.5)
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("export is not deterministic")
	}
	out := a.String()
	// One TYPE line per family, samples sorted under it.
	if strings.Count(out, "# TYPE fedms_ps_rounds_served_total counter") != 1 {
		t.Fatalf("want exactly one TYPE line per family:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE fedms_round gauge") {
		t.Fatalf("gauge TYPE missing:\n%s", out)
	}
	p0 := strings.Index(out, `{ps="0"} 2`)
	p1 := strings.Index(out, `{ps="1"} 3`)
	if p0 < 0 || p1 < 0 || p0 > p1 {
		t.Fatalf("samples missing or unsorted:\n%s", out)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil collectors must observe nothing")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceBoundedAndSorted(t *testing.T) {
	tr := NewTrace(3)
	tr.Emit(Event{Round: 1, Node: "ps0", Name: "ps_round"})
	tr.Emit(Event{Round: 0, Node: "c1", Name: "client_round", Fields: map[string]float64{"loss": 0.5, "bad": math.NaN()}})
	tr.Emit(Event{Round: 0, Node: "c0", Name: "client_round"})
	tr.Emit(Event{Round: 2, Node: "ps0", Name: "ps_round"}) // over the limit
	if tr.Len() != 3 || tr.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 3/1", tr.Len(), tr.Dropped())
	}
	ev := tr.Events()
	order := []string{"c0", "c1", "ps0"}
	for i, want := range order {
		if ev[i].Node != want {
			t.Fatalf("event %d node = %q, want %q (sorted by round,node,name)", i, ev[i].Node, want)
		}
	}
	if _, ok := ev[1].Fields["bad"]; ok {
		t.Fatal("non-finite field must be dropped")
	}
	if ev[1].Fields["loss"] != 0.5 {
		t.Fatal("finite field lost")
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	var last Event
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
	}
	if lines != 4 {
		t.Fatalf("JSONL lines = %d, want 3 events + truncation marker", lines)
	}
	if last.Name != "trace_truncated" || last.Fields["dropped"] != 1 {
		t.Fatalf("missing truncation marker, last = %+v", last)
	}
}

func TestTraceConcurrentEmit(t *testing.T) {
	tr := NewTrace(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for r := 0; r < 100; r++ {
				tr.Emit(Event{Round: r, Node: "n", Name: "e"})
			}
		}(i)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("len = %d, want 800", tr.Len())
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.Emit(Event{Round: 1})
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil trace must drop everything")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestPublishLogsTheEvent: the log line Publish derives carries the
// event's node and round and then exactly its fields, in sorted key
// order, while the trace receives the event itself. Either output may
// be absent.
func TestPublishLogsTheEvent(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
	tr := NewTrace(0)
	e := Event{Round: 3, Node: "ps1", Name: "ps_round", Fields: map[string]float64{"missed": 1, "bytes_in": 64, "uploads": 2.5}}
	Publish(tr, l, "ps round", e)
	want := "level=INFO msg=\"ps round\" node=ps1 round=3 bytes_in=64 missed=1 uploads=2.5\n"
	if got := buf.String(); got != want {
		t.Fatalf("log line\n got %q\nwant %q", got, want)
	}
	if ev := tr.Events(); len(ev) != 1 || ev[0].Name != "ps_round" || len(ev[0].Fields) != 3 {
		t.Fatalf("trace got %+v", ev)
	}
	Publish(nil, l, "ps round", e)
	Publish(tr, nil, "ps round", e)
	if tr.Len() != 2 || strings.Count(buf.String(), "\n") != 2 {
		t.Fatalf("one output missing must not silence the other: %d events, log %q", tr.Len(), buf.String())
	}
}
