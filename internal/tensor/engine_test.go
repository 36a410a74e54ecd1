package tensor_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"fedms"
	"fedms/internal/tensor"
)

// TestEngineModelsIndependentOfKernel runs short federations with the
// AVX2 pass on and off: the hash of all final models must not depend on
// the kernel. The mlp leg is the engine_paper benchmark's shape (K = 50,
// P = 10, B = 2, E = 3, the 32→128→64→10 MLP on batches of 32). The
// smallcnn and mobilenetv2 legs train the conv stack on 8×8 SynthImage
// (K = 4, P = 5, B = 1): their weight gradients take the packed TB
// path, and MobileNetV2's depthwise layers run the direct kernels.
func TestEngineModelsIndependentOfKernel(t *testing.T) {
	if !tensor.HaveAVX2() {
		t.Skip("no AVX2 on this CPU: the pure-Go kernel is the only one")
	}
	image := fedms.DatasetSpec{Kind: fedms.DatasetSynthImage, Samples: 400, Resolution: 8, Channels: 3}
	for _, leg := range []struct {
		name   string
		cfg    fedms.Config
		rounds int
	}{
		{"mlp", fedms.Config{
			Clients: 50, Servers: 10, NumByzantine: 2, Attack: fedms.NoiseAttack{},
			LocalSteps: 3, FilterRule: "trim:0.2",
			Dataset: fedms.DatasetSpec{Kind: fedms.DatasetBlobs, Samples: 10_000, Alpha: 1},
			Model:   fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{128, 64}},
		}, 3},
		{"smallcnn", fedms.Config{
			Clients: 4, Servers: 5, NumByzantine: 1, Attack: fedms.NoiseAttack{},
			LocalSteps: 2, BatchSize: 8, Dataset: image,
			Model: fedms.ModelSpec{Kind: fedms.ModelSmallCNN},
		}, 2},
		{"mobilenetv2", fedms.Config{
			Clients: 4, Servers: 5, NumByzantine: 1, Attack: fedms.NoiseAttack{},
			LocalSteps: 2, BatchSize: 8, Dataset: image,
			Model: fedms.ModelSpec{Kind: fedms.ModelMobileNetV2, WidthMult: 0.25},
		}, 2},
	} {
		t.Run(leg.name, func(t *testing.T) {
			cfg := leg.cfg
			cfg.Rounds, cfg.Seed, cfg.EvalEvery, cfg.Workers = leg.rounds, 1, -1, 1
			on, off := engineModelsHash(t, cfg, true), engineModelsHash(t, cfg, false)
			if on != off {
				t.Fatalf("final models hash %s with the AVX2 pass, %s without", on, off)
			}
			t.Logf("final models hash %s", on)
		})
	}
}

// engineModelsHash runs cfg.Rounds engine rounds with the AVX2 pass
// switched as asked and returns the SHA-256 of every client's final
// parameters.
func engineModelsHash(t *testing.T, cfg fedms.Config, avx2 bool) string {
	defer tensor.SetAVX2(avx2)()
	eng, err := fedms.BuildEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cfg.Rounds; r++ {
		eng.RunRound()
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	for _, l := range eng.Learners() {
		for _, v := range l.Params() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
