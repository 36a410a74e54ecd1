package node

import (
	"strings"
	"testing"
	"time"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/core"
	"fedms/internal/nn"
)

// TestDistributedByzantineClientParity runs the two-sided threat model
// over TCP — a Byzantine client uploading seeded random models, benign
// servers aggregating with a robust rule — and checks bitwise parity
// with the in-process engine.
func TestDistributedByzantineClientParity(t *testing.T) {
	const k, p, rounds, seed = 6, 3, 4, 41
	cfg := testSpec(k, p, rounds, aggregate.TrimmedMean{Beta: 1.0 / 3.0}, seed)
	cfg.Upload, cfg.ServerFilter = core.FullUpload, aggregate.TrimmedMean{Beta: 1.0 / 6.0}
	cfg.ByzantineClientIDs, cfg.ClientAttack = []int{4}, attack.UploadRandom{}

	dist, _, _ := launch(t, cfg, makeLearners(t, k, seed), nil, nil)
	eng := runEngineCfg(t, makeLearners(t, k, seed), cfg)
	assertSameParams(t, dist, eng, "two-sided threat model")
}

// authSpec is the single-PS full-upload federation the HMAC tests run.
func authSpec(rounds int, seed uint64) core.Config {
	cfg := testSpec(3, 1, rounds, aggregate.Mean{}, seed)
	cfg.LocalSteps, cfg.Schedule, cfg.Upload = 1, nn.ConstantLR(0.1), core.FullUpload
	return cfg
}

// TestAuthenticatedFederation runs the protocol with per-frame HMAC on
// and verifies a client holding the wrong key is rejected: the PS must
// abort with a MAC or protocol error rather than serve rounds, and no
// client may complete cleanly with a forging participant.
func TestAuthenticatedFederation(t *testing.T) {
	const seed = 42
	key := []byte("fed-pool-secret")
	l, err := NewLocal(authSpec(2, seed), makeLearners(t, 3, seed), func(pc *PSConfig) {
		pc.Key, pc.Timeout = key, 3*time.Second
	}, func(cc *ClientConfig) {
		cc.Key, cc.Timeout = key, 3*time.Second
		if cc.ID == 2 {
			cc.Key = []byte("wrong-key")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = l.Run()
	for _, node := range []string{"ps0: ", "c0: ", "c1: ", "c2: "} {
		if err == nil || !strings.Contains(err.Error(), node) {
			t.Fatalf("run with a wrong-key client: want a failure naming %q, got %v", node, err)
		}
	}
}

// TestAuthenticatedFederationHappyPath: all keys match, training
// completes.
func TestAuthenticatedFederationHappyPath(t *testing.T) {
	const seed = 43
	key := []byte("fed-pool-secret")
	l, err := NewLocal(authSpec(3, seed), makeLearners(t, 3, seed), func(pc *PSConfig) {
		pc.Key, pc.Timeout = key, 3*time.Second
	}, func(cc *ClientConfig) {
		cc.Key, cc.Timeout = key, 3*time.Second
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Run(); err != nil {
		t.Fatalf("authenticated run failed: %v", err)
	}
}
