package main

import (
	"flag"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fedms/cmd/internal/fedflags"
	"fedms/cmd/internal/fedflags/flagtest"
	"fedms/internal/core"
	"fedms/internal/node"
)

// TestNodeFlagSurface pins every flag fedms-node registers, by name,
// and holds README's two tables to the same lists: the shared flags
// (declared by fedflags, pinned there) plus this command's own.
func TestNodeFlagSurface(t *testing.T) {
	own := []string{
		"accept-burst", "accept-rate", "byzantine-clients", "checkpoint", "client-attack",
		"connect-token", "fault-corrupt", "fault-crash", "fault-delay", "fault-drop",
		"fault-duplicate", "fault-max-delay", "fault-seed", "full-upload", "hello-deadline",
		"id", "key", "latency-scale", "listen", "log", "metrics-addr", "min-models", "peers",
		"role", "server-beta", "timeout",
	}
	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	fedflags.Bind(shared, fedflags.NodeDefaults)
	want := append(flagtest.Names(shared), own...)
	slices.Sort(want)

	var got []string
	fs := flag.NewFlagSet("fedms-node", flag.ContinueOnError)
	declareFlags(fs)
	if got = flagtest.Names(fs); !slices.Equal(got, want) {
		t.Fatalf("registered flags\n got %v\nwant %v", got, want)
	}
	if got = flagtest.ReadmeFlags(t, "../../README.md", "`fedms-node` flags"); !slices.Equal(got, own) {
		t.Fatalf("README fedms-node table\n got %v\nwant %v", got, own)
	}
}

// occupied returns an address something else is already listening on:
// handed to -metrics-addr, it turns "was the listener bound before the
// flags were rejected" into which of two errors run returns.
func occupied(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	return ln.Addr().String()
}

// TestNodeRunSurfacesSpecErrorsBeforeListening: run returns the shared
// binding's rejection unchanged (the table of them lives in fedflags),
// and returns it before binding the -metrics-addr listener — including
// the two that used to fire inside the role, after the metrics server
// was up: a Byzantine majority and Byzantine clients with no attack.
func TestNodeRunSurfacesSpecErrorsBeforeListening(t *testing.T) {
	cases := map[string][]string{
		"shared flag":               {"-window", "500ms"},
		"shared spec":               {"-codec", "gzip"},
		"byzantine majority":        {"-servers", "4", "-byzantine", "2"},
		"byzantine clients unarmed": {"-clients", "5", "-byzantine-clients", "1"},
	}
	for name, args := range cases {
		// Subtests are named by label, not address: the occupied port
		// is picked by the kernel and would make the name differ per run.
		for label, metrics := range map[string]string{"127.0.0.1:0": "127.0.0.1:0", "occupied": occupied(t)} {
			t.Run(name+"/"+label, func(t *testing.T) {
				args := append([]string{"-role", "local", "-rounds", "1", "-metrics-addr", metrics}, args...)
				o, err := parseFlags(args)
				if err != nil {
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
}

// TestNodeRejectsBadDeploymentFlags covers the checks fedms-node keeps
// for its own flags; like the shared ones they fire before any listener
// is bound.
func TestNodeRejectsBadDeploymentFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"checkpoint without async", []string{"-checkpoint", "ps.ckpt"}, "-checkpoint"},
		{"latency scale without async", []string{"-latency-scale", "1s"}, "-latency-scale"},
		{"negative latency scale", []string{"-async", "-latency-scale", "-1s"}, "-latency-scale"},
		{"negative hello deadline", []string{"-hello-deadline", "-1s"}, "-hello-deadline"},
		{"negative accept rate", []string{"-accept-rate", "-1"}, "-accept-rate"},
		{"negative accept burst", []string{"-accept-burst", "-1"}, "-accept-burst"},
		{"accept burst without rate", []string{"-accept-burst", "4"}, "-accept-rate"},
		{"connect token without key", []string{"-connect-token"}, "-key"},
		{"fault rate above one", []string{"-fault-drop", "1.5"}, "fault rates"},
		{"negative fault rate", []string{"-fault-delay", "-0.1"}, "fault rates"},
		{"quorum above P", []string{"-min-models", "3"}, "-min-models"},
		{"unknown client attack", []string{"-byzantine-clients", "1", "-client-attack", "nonsense"}, "-client-attack"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-role", "local", "-clients", "3", "-servers", "2", "-rounds", "1",
				"-metrics-addr", occupied(t)}, tc.args...)
			err := run(args)
			if err == nil {
				t.Fatalf("%v accepted, want error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestNodeDeploymentFlagsParsed(t *testing.T) {
	o, err := parseFlags([]string{
		"-async", "-checkpoint", "ps.ckpt", "-latency-scale", "3s",
		"-hello-deadline", "1s", "-accept-rate", "5", "-accept-burst", "2", "-connect-token", "-key", "k",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.ckptPath != "ps.ckpt" || o.latencyScale != 3*time.Second || o.helloDeadline != time.Second ||
		o.acceptRate != 5 || o.acceptBurst != 2 || !o.connectToken || o.key != "k" {
		t.Fatalf("deployment flags not captured: %+v", o)
	}
	if _, err := o.resolve(o.newObs()); err != nil {
		t.Fatalf("valid deployment flags rejected: %v", err)
	}
}

// TestNodeClientRoleRunsTheLocalClient: `-role client` must run client
// id under exactly the configuration `-role local` gives that client —
// the two used to be separate hand-written literals, and the client
// role's had lost -full-upload, so a multi-process federation uploaded
// sparsely into a robust server rule.
func TestNodeClientRoleRunsTheLocalClient(t *testing.T) {
	const id = 1
	federation := []string{
		"-clients", "3", "-servers", "2", "-rounds", "1", "-samples", "600", "-seed", "9",
		"-full-upload", "-codec", "ef+topk:0.1", "-server-rule", "trim:0.2", "-downlink-codec", "q8",
		"-participation", "0.7", "-byzantine-clients", "1", "-client-attack", "upload_signflip",
		"-min-models", "2", "-key", "secret", "-timeout", "10s",
	}
	// ran records client id's configuration and its model before any
	// training, as the role handed them to the runtime.
	var (
		mu  sync.Mutex
		ran []node.ClientConfig
		w0  [][]float64
	)
	record := func(cc node.ClientConfig) {
		if cc.ID == id {
			mu.Lock()
			ran, w0 = append(ran, cc), append(w0, cc.Learner.Params())
			mu.Unlock()
		}
	}
	realRun, realLocal := runClient, newLocal
	t.Cleanup(func() { runClient, newLocal = realRun, realLocal })

	// The local role runs its federation for real, recording each
	// client's configuration once deployment is applied; the client
	// role, with no servers to dial, stops at the call.
	newLocal = func(cfg core.Config, ls []core.Learner, ps func(*node.PSConfig), client func(*node.ClientConfig)) (*node.Local, error) {
		return realLocal(cfg, ls, ps, func(cc *node.ClientConfig) {
			client(cc)
			record(*cc)
		})
	}
	if err := run(append([]string{"-role", "local"}, federation...)); err != nil {
		t.Fatal(err)
	}
	runClient = func(cc node.ClientConfig) ([]node.ClientRoundStats, error) {
		record(cc)
		return nil, nil
	}
	if err := run(append([]string{"-role", "client", "-id", "1", "-peers", "a:1,b:2"}, federation...)); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 {
		t.Fatalf("client %d ran %d times, want once per role", id, len(ran))
	}
	local, remote := ran[0], ran[1]

	if !remote.FullUpload || !local.FullUpload {
		t.Fatalf("-full-upload lost: client role %v, local role %v", remote.FullUpload, local.FullUpload)
	}
	lv, rv := reflect.ValueOf(local), reflect.ValueOf(remote)
	for i := 0; i < lv.NumField(); i++ {
		name := lv.Type().Field(i).Name
		l, r := lv.Field(i).Interface(), rv.Field(i).Interface()
		switch name {
		case "Servers": // the one field that is the role's own
			continue
		case "Learner": // separate instances of the same seeded learner
			l, r = w0[0], w0[1]
		case "Codec":
			l, r = local.Codec.Name(), remote.Codec.Name()
		}
		if !reflect.DeepEqual(l, r) {
			t.Errorf("ClientConfig.%s: local role %v, client role %v", name, l, r)
		}
	}
}
