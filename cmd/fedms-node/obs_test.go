package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNodeObsFlagsParsed(t *testing.T) {
	o, err := parseFlags([]string{
		"-metrics-addr", "127.0.0.1:9090", "-trace", "out.jsonl", "-log",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.metricsAddr != "127.0.0.1:9090" || o.spec.TracePath != "out.jsonl" || !o.logRounds {
		t.Fatalf("observability flags not captured: %+v", o)
	}
}

// TestNodeMetricsServerLiveFederation runs a local federation with the
// metrics server up and scrapes /metrics and pprof while it serves:
// the export must carry the PS, client and transport families, and the
// pprof handlers must answer on the same mux.
func TestNodeMetricsServerLiveFederation(t *testing.T) {
	o, err := parseFlags([]string{
		"-role", "local", "-clients", "3", "-servers", "2",
		"-rounds", "3", "-samples", "800", "-timeout", "10s",
		"-metrics-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	st := o.newObs()
	cfg, err := o.resolve(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.serveMetrics(o.metricsAddr); err != nil {
		t.Fatal(err)
	}
	defer st.close()

	done := make(chan error, 1)
	go func() { done <- runLocal(o, cfg) }()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", st.addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	// Mid-run scrape: the endpoint must answer while the federation is
	// still training (content depends on timing, status must not).
	if code, _ := get("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics returned %d during the run", code)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	for _, want := range []string{
		"fedms_ps_rounds_served_total",
		"fedms_client_rounds_total",
		"fedms_transport_frames_sent_total",
		"fedms_ps_barrier_wait_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline returned %d", code)
	}
}

// TestNodeTraceFile runs a lossy local federation with -trace and
// checks the JSONL output: every line valid JSON, with both ps_round
// and client_round events covering all rounds.
func TestNodeTraceFile(t *testing.T) {
	const rounds = 3
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	err := run([]string{
		"-role", "local", "-clients", "3", "-servers", "2",
		"-rounds", fmt.Sprint(rounds), "-samples", "800",
		"-fault-drop", "0.1", "-fault-seed", "7",
		"-min-models", "1", "-timeout", "2s",
		"-trace", path,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := map[string]int{}
	maxRound := -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Round int    `json:"round"`
			Node  string `json:"node"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		counts[ev.Event]++
		if ev.Round > maxRound {
			maxRound = ev.Round
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 2 PSs and 3 clients, one event each per round.
	if counts["ps_round"] != 2*rounds {
		t.Fatalf("trace has %d ps_round events, want %d", counts["ps_round"], 2*rounds)
	}
	if counts["client_round"] != 3*rounds {
		t.Fatalf("trace has %d client_round events, want %d", counts["client_round"], 3*rounds)
	}
	if maxRound != rounds-1 {
		t.Fatalf("trace covers rounds up to %d, want %d", maxRound, rounds-1)
	}
}

// TestNodeTraceUnwritablePath: a failed trace write must surface as the
// run error, not vanish.
func TestNodeTraceUnwritablePath(t *testing.T) {
	err := run([]string{
		"-role", "local", "-clients", "2", "-servers", "2",
		"-rounds", "1", "-samples", "600", "-timeout", "10s",
		"-trace", filepath.Join(t.TempDir(), "no-such-dir", "trace.jsonl"),
	})
	if err == nil {
		t.Fatal("unwritable trace path must error")
	}
}

// TestNodeLogFlag smoke-tests the slog path end to end.
func TestNodeLogFlag(t *testing.T) {
	err := run([]string{
		"-role", "local", "-clients", "2", "-servers", "2",
		"-rounds", "2", "-samples", "600", "-timeout", "10s", "-log",
	})
	if err != nil {
		t.Fatal(err)
	}
}
