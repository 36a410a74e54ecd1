package main

import (
	"testing"
)

func TestNodeLocalFederation(t *testing.T) {
	err := run([]string{
		"-role", "local", "-clients", "4", "-servers", "2",
		"-rounds", "3", "-samples", "800", "-timeout", "10s",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeLocalByzantine(t *testing.T) {
	err := run([]string{
		"-role", "local", "-clients", "4", "-servers", "3", "-byzantine", "1",
		"-attack", "noise", "-rounds", "3", "-samples", "800", "-timeout", "10s",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeLocalTwoSidedWithAuth(t *testing.T) {
	err := run([]string{
		"-role", "local", "-clients", "5", "-servers", "2",
		"-byzantine-clients", "1", "-client-attack", "upload_signflip",
		"-server-beta", "0.2", "-full-upload", "-key", "secret",
		"-rounds", "3", "-samples", "800", "-timeout", "10s",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeRejectsUnknownRole(t *testing.T) {
	if err := run([]string{"-role", "nonsense"}); err == nil {
		t.Fatal("unknown role must error")
	}
}

func TestNodeClientRequiresPeers(t *testing.T) {
	if err := run([]string{"-role", "client"}); err == nil {
		t.Fatal("client without peers must error")
	}
}

func TestNodeClientPeerCountMismatch(t *testing.T) {
	if err := run([]string{"-role", "client", "-peers", "127.0.0.1:1", "-servers", "3"}); err == nil {
		t.Fatal("peer/server count mismatch must error")
	}
}

func TestNodeByzantineClientsRequireAttack(t *testing.T) {
	err := run([]string{
		"-role", "local", "-clients", "5", "-servers", "2",
		"-byzantine-clients", "1", "-rounds", "1",
	})
	if err == nil {
		t.Fatal("byzantine clients without -client-attack must error")
	}
}

func TestNodeLocalChaosFaults(t *testing.T) {
	// A lossy local federation must still complete when the PSs are
	// tolerant and the clients accept a quorum of models.
	err := run([]string{
		"-role", "local", "-clients", "3", "-servers", "2",
		"-rounds", "3", "-samples", "800",
		"-fault-drop", "0.1", "-fault-seed", "7",
		"-min-models", "1", "-timeout", "1s",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeLocalChaosCrash(t *testing.T) {
	// The last PS crashes after two rounds; clients degrade to the
	// remaining quorum and finish.
	err := run([]string{
		"-role", "local", "-clients", "3", "-servers", "3",
		"-rounds", "4", "-samples", "800",
		"-fault-crash", "2", "-min-models", "2", "-timeout", "5s",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeFaultFlagsParsed(t *testing.T) {
	o, err := parseFlags([]string{
		"-fault-drop", "0.2", "-fault-corrupt", "0.1",
		"-fault-duplicate", "0.05", "-fault-delay", "0.3",
		"-fault-max-delay", "50ms", "-fault-seed", "99",
		"-fault-crash", "2", "-min-models", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	fi := o.faultInjector()
	if fi == nil {
		t.Fatal("fault rates set but no injector built")
	}
	cfg := fi.Config()
	if cfg.Seed != 99 || cfg.Drop != 0.2 || cfg.Corrupt != 0.1 ||
		cfg.Duplicate != 0.05 || cfg.Delay != 0.3 {
		t.Fatalf("injector config %+v does not match flags", cfg)
	}
	if !o.tolerant() {
		t.Fatal("fault flags must imply tolerant mode")
	}
}

func TestNodeFaultSeedDefaultsToSeed(t *testing.T) {
	o, err := parseFlags([]string{"-seed", "42", "-fault-drop", "0.1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.faultInjector().Config().Seed; got != 42 {
		t.Fatalf("fault seed = %d, want the experiment seed 42", got)
	}
	clean, err := parseFlags([]string{"-seed", "42"})
	if err != nil {
		t.Fatal(err)
	}
	if clean.faultInjector() != nil {
		t.Fatal("no fault rates set but injector built")
	}
	if clean.tolerant() {
		t.Fatal("clean run must stay strict")
	}
}

func TestNodeLocalCodecFederation(t *testing.T) {
	err := run([]string{
		"-role", "local", "-clients", "4", "-servers", "2",
		"-codec", "ef+topk:0.2", "-downlink-codec", "q8",
		"-rounds", "3", "-samples", "800", "-timeout", "10s",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeLocalAsyncFederation(t *testing.T) {
	// Async local federation: with the default -latency-scale well under
	// this -window every upload arrives fresh, so the run is
	// deterministic and completes like the sync barrier would.
	err := run([]string{
		"-role", "local", "-clients", "4", "-servers", "2",
		"-async", "-window", "2s", "-staleness", "2",
		"-rounds", "3", "-samples", "800", "-timeout", "10s",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeLocalLossRuleFederation(t *testing.T) {
	// End-to-end local federation with a loss-oracle filter: run()
	// must auto-build the holdout oracle from the shared seed and the
	// federation must complete.
	err := run([]string{
		"-role", "local", "-clients", "4", "-servers", "3", "-byzantine", "1",
		"-attack", "noise", "-filter", "fedgreed", "-server-rule", "losscluster",
		"-rounds", "3", "-samples", "800", "-timeout", "10s",
	})
	if err != nil {
		t.Fatal(err)
	}
}
