package core

import (
	"path/filepath"
	"testing"

	"fedms/internal/aggregate"
	"fedms/internal/attack"
	"fedms/internal/checkpoint"
)

func TestSaveConsensus(t *testing.T) {
	learners, _ := testFixture(t, 3, 44)
	cfg := baseConfig(3, 2, 0, attack.None{}, aggregate.Mean{})
	cfg.Rounds = 2
	cfg.EvalEvery = -1
	eng, err := NewEngine(cfg, learners)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	path := filepath.Join(t.TempDir(), "consensus.ckpt")
	if err := eng.SaveConsensus(path, map[string]string{"run": "test"}); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 2 || st.Seed != cfg.Seed || st.Meta["run"] != "test" {
		t.Fatalf("consensus metadata: %+v", st)
	}
	want := eng.MeanClientParams()
	if len(st.Params) != len(want) {
		t.Fatalf("consensus has %d params, want %d", len(st.Params), len(want))
	}
	for i := range want {
		if st.Params[i] != want[i] {
			t.Fatal("consensus params differ")
		}
	}
}
