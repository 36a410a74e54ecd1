package fedflags

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"fedms"
	"fedms/cmd/internal/fedflags/flagtest"
)

// commands are the two default sets the binding is used under.
var commands = map[string]fedms.Config{"fedms-node": NodeDefaults, "fedms-sim": SimDefaults}

func bind(t *testing.T, defaults fedms.Config, args ...string) *Binding {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	b := Bind(fs, defaults)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSharedFlagSurface pins the shared flags by name — a flag cannot
// be dropped or renamed silently — and holds README's shared table to
// the same list.
func TestSharedFlagSurface(t *testing.T) {
	want := []string{
		"alpha", "async", "attack", "batch", "byzantine", "clients", "codec",
		"downlink-codec", "filter", "lr", "participation", "rounds", "samples", "seed",
		"server-rule", "servers", "spill-dir", "spill-mem", "staleness",
		"steps", "trace", "upload", "window",
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Bind(fs, NodeDefaults)
	if got := flagtest.Names(fs); !slices.Equal(got, want) {
		t.Fatalf("shared flags\n got %v\nwant %v", got, want)
	}
	if got := flagtest.ReadmeFlags(t, "../../../README.md", "Shared federation flags"); !slices.Equal(got, want) {
		t.Fatalf("README shared-flag table\n got %v\nwant %v", got, want)
	}
}

// TestDefaults: the size of the federation is the only default that
// differs between the commands; everything else is one literal in Bind.
func TestDefaults(t *testing.T) {
	node, sim := bind(t, NodeDefaults).Config, bind(t, SimDefaults).Config
	if node.Clients != 8 || node.Servers != 3 || node.NumByzantine != 0 || node.Rounds != 10 || node.Dataset.Samples != 4000 {
		t.Fatalf("fedms-node size defaults: %+v", node)
	}
	if sim.Clients != 50 || sim.Servers != 10 || sim.NumByzantine != 2 || sim.Rounds != 60 || sim.Dataset.Samples != 10000 {
		t.Fatalf("fedms-sim size defaults: %+v", sim)
	}
	for name, c := range map[string]fedms.Config{"fedms-node": node, "fedms-sim": sim} {
		if c.LocalSteps != 3 || c.BatchSize != 32 || c.LearningRate != 0.1 ||
			c.Dataset.Alpha != 10 || c.Seed != 1 || c.Participation != 1 || c.Async ||
			c.UploadCodec != "dense" || c.DownlinkCodec != "dense" || c.FilterRule != "" || c.ServerRule != "" {
			t.Fatalf("%s shared defaults: %+v", name, c)
		}
	}
}

// TestFlagsReachTheirFields: every shared flag lands in the spec field
// it is documented to set, and the spec resolves.
func TestFlagsReachTheirFields(t *testing.T) {
	b := bind(t, NodeDefaults,
		"-clients", "6", "-servers", "5", "-byzantine", "2", "-rounds", "7", "-steps", "4",
		"-batch", "16", "-filter", "median", "-server-rule", "trim:0.2", "-upload", "full",
		"-attack", "backward", "-lr", "0.05", "-alpha", "0.5", "-samples", "900", "-seed", "42",
		"-participation", "0.5", "-async", "-window", "750ms", "-staleness", "3",
		"-spill-dir", "/tmp/spill", "-spill-mem", "4096", "-codec", "EF+TopK:0.1",
		"-downlink-codec", "q8", "-trace", "out.jsonl")
	c := b.Config
	if c.Clients != 6 || c.Servers != 5 || c.NumByzantine != 2 || c.Rounds != 7 || c.LocalSteps != 4 ||
		c.BatchSize != 16 || c.FilterRule != "median" || c.ServerRule != "trim:0.2" ||
		c.LearningRate != 0.05 || c.Dataset.Alpha != 0.5 || c.Dataset.Samples != 900 || c.Seed != 42 ||
		c.Participation != 0.5 || !c.Async || c.Window != 750*time.Millisecond ||
		c.Staleness != 3 || c.SpillDir != "/tmp/spill" || c.SpillMem != 4096 ||
		c.UploadCodec != "EF+TopK:0.1" || c.DownlinkCodec != "q8" || b.TracePath != "out.jsonl" {
		t.Fatalf("flags not captured: %+v", c)
	}
	ecfg, err := b.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ecfg.Attack.Name(), "backward") || ecfg.TraceSink == nil || ecfg.Filter.Name() != "median" ||
		ecfg.Upload != fedms.FullUpload || ecfg.UploadCodec.String() != "ef+topk:0.1" || len(ecfg.ByzantineIDs) != 2 {
		t.Fatalf("resolved spec: %+v", ecfg)
	}
}

// TestRejectsBadSharedFlags is the one table of bad shared-flag input.
// Each row must be rejected, under either command's defaults, by an
// error naming the flag — the commands add no check of their own, they
// only surface this error (see their TestRunSurfaces… tests).
func TestRejectsBadSharedFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings of the error, the flag's name first
	}{
		{"window without async", []string{"-window", "500ms"}, []string{"-window", "requires Async"}},
		{"staleness without async", []string{"-staleness", "2"}, []string{"-staleness", "requires Async"}},
		{"spill dir without async", []string{"-spill-dir", "/tmp"}, []string{"-spill-dir", "requires Async"}},
		{"spill mem without async", []string{"-spill-mem", "1024"}, []string{"-spill-mem", "requires Async"}},
		{"negative window", []string{"-async", "-window", "-1s"}, []string{"-window"}},
		{"negative staleness", []string{"-async", "-staleness", "-1"}, []string{"-staleness"}},
		{"negative spill mem", []string{"-async", "-spill-mem", "-1"}, []string{"-spill-mem"}},
		{"unweighted server rule under async", []string{"-async", "-server-rule", "krum"}, []string{"-server-rule", "weighted"}},

		{"unknown codec", []string{"-codec", "gzip"}, []string{"-codec"}},
		{"codec ratio out of range", []string{"-codec", "topk:1.5"}, []string{"-codec"}},
		{"codec bits out of range", []string{"-codec", "q0"}, []string{"-codec"}},
		{"bad downlink codec", []string{"-downlink-codec", "randk:7"}, []string{"-downlink-codec"}},
		{"error-feedback downlink", []string{"-downlink-codec", "ef+topk:0.1"}, []string{"-downlink-codec", "error feedback"}},
		{"random-support downlink", []string{"-downlink-codec", "randk:0.5"}, []string{"-downlink-codec", "deterministic"}},

		{"trim rate one half", []string{"-filter", "trim:0.5"}, []string{"-filter", "out of [0, 0.5)"}},
		{"trim rate above one half", []string{"-filter", "trim:0.7"}, []string{"-filter", "out of [0, 0.5)"}},
		{"non-finite filter parameter", []string{"-filter", "trim:NaN"}, []string{"-filter", "finite"}},
		{"unknown filter", []string{"-filter", "bogus"}, []string{"-filter"}},
		{"filter parameter out of range", []string{"-filter", "trim:0.9"}, []string{"-filter"}},
		{"filter excess arguments", []string{"-filter", "fedgreed:1"}, []string{"-filter"}},
		{"unknown server rule", []string{"-server-rule", "nope"}, []string{"-server-rule"}},
		{"server rule bad parameter", []string{"-server-rule", "krum:-1"}, []string{"-server-rule"}},

		{"zero participation", []string{"-participation", "0"}, []string{"-participation"}},
		{"negative participation", []string{"-participation", "-0.5"}, []string{"-participation"}},
		{"participation above one", []string{"-participation", "1.5"}, []string{"-participation"}},
		{"participation activating nobody", []string{"-participation", "0.1"}, []string{"-participation"}},
		{"NaN participation", []string{"-participation", "NaN"}, []string{"-participation", "must be in (0,1]"}},
		{"Byzantine majority", []string{"-servers", "4", "-byzantine", "2"}, []string{"-byzantine", "B < P/2"}},
		{"unknown attack", []string{"-attack", "nonsense"}, []string{"-attack"}},
		{"deleted signflip attack", []string{"-attack", "signflip"}, []string{"-attack", "unknown attack"}},
		{"deleted zero attack", []string{"-attack", "zero"}, []string{"-attack", "unknown attack"}},
		{"unknown upload", []string{"-upload", "nonsense"}, []string{"-upload", "unknown upload strategy"}},
		{"round-robin upload", []string{"-upload", "round_robin"}, []string{"-upload", "unknown upload strategy"}},
		{"negative rounds", []string{"-rounds", "-1"}, []string{"-rounds"}},
	}
	for cmd, defaults := range commands {
		for _, tc := range cases {
			t.Run(cmd+"/"+tc.name, func(t *testing.T) {
				args := append([]string{"-clients", "2", "-servers", "2", "-byzantine", "0", "-rounds", "1"}, tc.args...)
				_, err := bind(t, defaults, args...).Resolve()
				if err == nil {
					t.Fatalf("%v accepted, want error", tc.args)
				}
				if !strings.HasPrefix(err.Error(), tc.want[0]+":") {
					t.Fatalf("error %q does not lead with the flag %s", err, tc.want[0])
				}
				for _, w := range tc.want[1:] {
					if !strings.Contains(err.Error(), w) {
						t.Fatalf("error %q does not mention %q", err, w)
					}
				}
			})
		}
	}
}

// TestListedValuesParse: -attack and -upload list, in their usage
// strings and README rows alike, exactly the values the binding
// accepts (the deleted values are rows of TestRejectsBadSharedFlags).
func TestListedValuesParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Bind(fs, NodeDefaults)
	for _, name := range []string{"attack", "upload"} {
		flagtest.CheckValues(t, fs, "../../../README.md", "Shared federation flags", name, func(v string) error {
			_, err := bind(t, NodeDefaults, "-servers", "3", "-byzantine", "1", "-"+name, v).Resolve()
			return err
		}, "nonsense")
	}
}
