package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fedms/cmd/internal/fedflags"
	"fedms/cmd/internal/fedflags/flagtest"
)

func TestRunQuickSimulation(t *testing.T) {
	err := run([]string{
		"-clients", "6", "-servers", "3", "-byzantine", "1",
		"-rounds", "3", "-eval", "3", "-samples", "900",
		"-attack", "noise",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithPlotAndCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "m.ckpt")
	err := run([]string{
		"-clients", "4", "-servers", "3", "-byzantine", "0",
		"-rounds", "2", "-eval", "1", "-samples", "600",
		"-plot", "-ckpt", ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesTrace(t *testing.T) {
	const rounds = 3
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	err := run([]string{
		"-clients", "4", "-servers", "2", "-byzantine", "0",
		"-rounds", "3", "-eval", "3", "-samples", "600",
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
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Round int    `json:"round"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		if ev.Event != "engine_round" || ev.Round != lines {
			t.Fatalf("unexpected event %q at round %d (line %d)", ev.Event, ev.Round, lines)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != rounds {
		t.Fatalf("trace has %d events, want one per round (%d)", lines, rounds)
	}
}

func TestRunRejectsUnknownDataset(t *testing.T) {
	if err := run([]string{"-dataset", "nonsense", "-rounds", "1"}); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

// TestSimListedValuesParse: -dataset and -model list, in their usage
// strings and README rows alike, exactly the kinds the engine build
// knows. A listed kind parses when the build raises no unknown-kind
// error (cifar10 still fails here, on its missing -data-dir).
func TestSimListedValuesParse(t *testing.T) {
	fs := flag.NewFlagSet("fedms-sim", flag.ContinueOnError)
	declareFlags(fs)
	for _, tc := range []struct {
		name, unknown string
		base          []string
		unlisted      []string
	}{
		{"dataset", "unknown dataset kind", []string{"-model", "mlp"}, []string{"nonsense", "mnist"}},
		{"model", "unknown model kind", []string{"-dataset", "synthimage"}, []string{"nonsense", "logistic"}},
	} {
		flagtest.CheckValues(t, fs, "../../README.md", "`fedms-sim` flags", tc.name, func(v string) error {
			args := append([]string{"-clients", "2", "-servers", "1", "-byzantine", "0", "-rounds", "1",
				"-samples", "40", "-" + tc.name, v}, tc.base...)
			sfs := flag.NewFlagSet("fedms-sim", flag.ContinueOnError)
			o := declareFlags(sfs)
			if err := sfs.Parse(args); err != nil {
				return err
			}
			eng, err := o.spec.BuildEngine()
			if err == nil {
				return eng.Close()
			}
			if strings.Contains(err.Error(), tc.unknown) {
				return err
			}
			return nil
		}, tc.unlisted...)
	}
}

func TestRunVanillaMode(t *testing.T) {
	err := run([]string{
		"-clients", "4", "-servers", "3", "-byzantine", "1",
		"-rounds", "2", "-eval", "2", "-samples", "600",
		"-attack", "random", "-filter", "mean",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithLossRuleFilter(t *testing.T) {
	// -filter fedgreed resolves through the registry and auto-builds
	// the holdout oracle inside fedms.Run.
	err := run([]string{
		"-clients", "4", "-servers", "3", "-byzantine", "1",
		"-rounds", "2", "-eval", "2", "-samples", "600",
		"-attack", "noise", "-filter", "fedgreed",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunAsyncSimulation(t *testing.T) {
	// A short async run under the virtual clock: a window narrower than
	// the latency scale forces stale arrivals through the admission and
	// spill machinery, and the run must still complete.
	err := run([]string{
		"-clients", "6", "-servers", "3", "-byzantine", "1",
		"-rounds", "4", "-eval", "4", "-samples", "900",
		"-attack", "noise",
		"-async", "-window", "300ms", "-staleness", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunAsyncClosesSpill: an async run whose spill overflowed to disk
// (the trace shows a non-empty spill) leaves no segment behind.
func TestRunAsyncClosesSpill(t *testing.T) {
	dir, trace := t.TempDir(), filepath.Join(t.TempDir(), "trace.jsonl")
	err := run([]string{
		"-clients", "8", "-servers", "5", "-byzantine", "1",
		"-rounds", "6", "-eval", "6", "-samples", "900",
		"-async", "-window", "100ms", "-staleness", "3",
		"-spill-mem", "1", "-spill-dir", dir, "-trace", trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	spilled := false
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var ev struct {
			Fields map[string]float64 `json:"fields"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		spilled = spilled || ev.Fields["spill_depth"] > 0
	}
	if !spilled {
		t.Fatal("no round spilled: the run never wrote a segment")
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("spill dir after the run: %v %v", left, err)
	}
}

// TestSimFlagSurface pins every flag fedms-sim registers, by name, and
// holds README's table to the same list: the shared flags (declared by
// fedflags, pinned there) plus this command's own. The four ingest
// flags it once accepted and ignored are gone.
func TestSimFlagSurface(t *testing.T) {
	own := []string{"ckpt", "data-dir", "dataset", "eval", "model", "noise", "plot"}
	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	fedflags.Bind(shared, fedflags.SimDefaults)
	want := append(flagtest.Names(shared), own...)
	slices.Sort(want)

	fs := flag.NewFlagSet("fedms-sim", flag.ContinueOnError)
	declareFlags(fs)
	if got := flagtest.Names(fs); !slices.Equal(got, want) {
		t.Fatalf("registered flags\n got %v\nwant %v", got, want)
	}
	if got := flagtest.ReadmeFlags(t, "../../README.md", "`fedms-sim` flags"); !slices.Equal(got, own) {
		t.Fatalf("README fedms-sim table\n got %v\nwant %v", got, own)
	}
}

// TestRunSurfacesSpecErrors: run returns the shared binding's rejection
// unchanged — the table of them lives in fedflags.
func TestRunSurfacesSpecErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"shared flag":        {"-window", "500ms"},
		"shared spec":        {"-filter", "bogus"},
		"unknown upload":     {"-upload", "nonsense"},
		"unknown attack":     {"-attack", "nonsense"},
		"byzantine majority": {"-servers", "4", "-byzantine", "2"},
	} {
		t.Run(name, func(t *testing.T) {
			fs := flag.NewFlagSet("fedms-sim", flag.ContinueOnError)
			o := declareFlags(fs)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			_, want := o.spec.Resolve()
			if want == nil || !strings.HasPrefix(want.Error(), "-") {
				t.Fatalf("binding accepted %v (or named no flag): %v", args, want)
			}
			if got := run(args); got == nil || got.Error() != want.Error() {
				t.Fatalf("run(%v) = %v, want the binding's error %q", args, got, want)
			}
		})
	}
}
