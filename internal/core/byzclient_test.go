package core

import (
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
)

func TestConfigByzantineClientValidation(t *testing.T) {
	base := func() Config {
		c := baseConfig(10, 5, 0, attack.None{}, aggregate.Mean{})
		c.NumByzantineClients = 2
		c.ClientAttack = attack.UploadRandom{}
		return c
	}
	if _, err := base().Validate(); err != nil {
		t.Fatalf("valid two-sided config rejected: %v", err)
	}

	c := base()
	c.ClientAttack = nil
	if _, err := c.Validate(); err == nil {
		t.Fatal("Byzantine clients without ClientAttack must be rejected")
	}

	c = base()
	c.NumByzantineClients = 5 // half of 10
	if _, err := c.Validate(); err == nil {
		t.Fatal("Byzantine client majority must be rejected")
	}

	c = base()
	c.ByzantineClientIDs = []int{3, 3}
	if _, err := c.Validate(); err == nil {
		t.Fatal("duplicate Byzantine client ids must be rejected")
	}

	c = base()
	c.ByzantineClientIDs = []int{10}
	if _, err := c.Validate(); err == nil {
		t.Fatal("out-of-range Byzantine client id must be rejected")
	}
}

func TestConfigDerivesByzantineClientIDs(t *testing.T) {
	c := baseConfig(10, 5, 0, attack.None{}, aggregate.Mean{})
	c.NumByzantineClients = 3
	c.ClientAttack = attack.UploadRandom{}
	resolved, err := c.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved.ByzantineClientIDs) != 3 {
		t.Fatalf("ids = %v", resolved.ByzantineClientIDs)
	}
	if !resolved.IsByzantineClient(resolved.ByzantineClientIDs[1]) {
		t.Fatal("IsByzantineClient inconsistent")
	}
	again, _ := c.Validate()
	for i := range resolved.ByzantineClientIDs {
		if resolved.ByzantineClientIDs[i] != again.ByzantineClientIDs[i] {
			t.Fatal("client ids must be seed-deterministic")
		}
	}
}

// runTwoSided runs a federation with Byzantine clients using the given
// server-side rule and returns the final accuracy.
func runTwoSided(t *testing.T, serverFilter aggregate.Rule, clientAtk attack.UploadAttack, byzClients int) float64 {
	t.Helper()
	learners, _ := testFixture(t, 10, 21)
	cfg := baseConfig(10, 3, 0, attack.None{}, aggregate.TrimmedMean{Beta: 0.2})
	cfg.Rounds = 20
	cfg.Upload = FullUpload // every PS sees all clients: robust rules apply cleanly
	cfg.NumByzantineClients = byzClients
	cfg.ClientAttack = clientAtk
	cfg.ServerFilter = serverFilter
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	return finalAcc(eng.Run())
}

func TestByzantineClientsDefeatMeanServers(t *testing.T) {
	// Random uploads through averaging servers wreck the model; a
	// trimmed-mean server filter restores it. This is the two-sided
	// extension working end to end.
	poisoned := runTwoSided(t, aggregate.Mean{}, attack.UploadRandom{}, 3)
	defended := runTwoSided(t, aggregate.TrimmedMean{Beta: 0.3}, attack.UploadRandom{}, 3)
	clean := runTwoSided(t, aggregate.Mean{}, attack.UploadRandom{}, 0)

	if defended < 0.8*clean {
		t.Fatalf("robust server filter should recover: defended %.3f vs clean %.3f", defended, clean)
	}
	if poisoned > defended-0.1 {
		t.Fatalf("mean servers should be hurt by Byzantine clients: poisoned %.3f vs defended %.3f", poisoned, defended)
	}
}

func TestByzantineClientTrainingStateUntouched(t *testing.T) {
	// The Byzantine client's own learner keeps its honest training
	// state; only the transmitted upload is tampered. After one round
	// the client's model equals the filter output like everyone else's.
	learners, _ := testFixture(t, 6, 22)
	cfg := baseConfig(6, 3, 0, attack.None{}, aggregate.Mean{})
	cfg.Rounds = 1
	cfg.ByzantineClientIDs = []int{2}
	cfg.ClientAttack = attack.UploadRandom{}
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunRound()
	// All clients end the round with the same filtered model under
	// consistent dissemination + identical filter.
	p0 := eng.Learners()[0].Params()
	p2 := eng.Learners()[2].Params()
	for i := range p0 {
		if p0[i] != p2[i] {
			t.Fatal("Byzantine client's post-filter state diverged")
		}
	}
}

func TestBothSidesByzantine(t *testing.T) {
	// Byzantine servers AND Byzantine clients simultaneously, with the
	// trimmed-mean filter on both sides: training still succeeds.
	learners, _ := testFixture(t, 12, 23)
	cfg := baseConfig(12, 5, 1, attack.Noise{}, aggregate.TrimmedMean{Beta: 0.2})
	cfg.Rounds = 20
	cfg.Upload = FullUpload
	cfg.NumByzantineClients = 2
	cfg.ClientAttack = attack.UploadRandom{}
	cfg.ServerFilter = aggregate.TrimmedMean{Beta: 2.0 / 12.0}
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	if acc := finalAcc(eng.Run()); acc < 0.7 {
		t.Fatalf("two-sided defence reached only %.3f", acc)
	}
}

func TestByzantineClientsDeterministic(t *testing.T) {
	run := func() float64 {
		learners, _ := testFixture(t, 8, 24)
		cfg := baseConfig(8, 3, 0, attack.None{}, aggregate.Mean{})
		cfg.Rounds = 5
		cfg.NumByzantineClients = 2
		cfg.ClientAttack = attack.UploadRandom{}
		eng, err := NewEngine(cfg, learners)
		if err != nil {
			t.Fatal(err)
		}
		stats := eng.Run()
		return stats[len(stats)-1].TrainLoss
	}
	if run() != run() {
		t.Fatal("Byzantine-client runs must be reproducible")
	}
}
