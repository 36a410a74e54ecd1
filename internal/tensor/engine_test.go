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

// TestEngineModelsIndependentOfKernel runs a short federation at the
// engine_paper benchmark's shape (K = 50, P = 10, B = 2, E = 3, the
// 32→128→64→10 MLP on batches of 32) with the AVX2 pass on and off: the
// hash of all 50 final models must not depend on the kernel.
func TestEngineModelsIndependentOfKernel(t *testing.T) {
	if !tensor.HaveAVX2() {
		t.Skip("no AVX2 on this CPU: the pure-Go kernel is the only one")
	}
	run := func(avx2 bool) string {
		defer tensor.SetAVX2(avx2)()
		eng, err := fedms.BuildEngine(fedms.Config{
			Clients: 50, Servers: 10, NumByzantine: 2, Attack: fedms.NoiseAttack{},
			Rounds: 3, LocalSteps: 3, FilterRule: "trim:0.2",
			Dataset: fedms.DatasetSpec{Kind: fedms.DatasetBlobs, Samples: 10_000, Alpha: 1},
			Model:   fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{128, 64}},
			Seed:    1, EvalEvery: -1, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
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
	if on, off := run(true), run(false); on != off {
		t.Fatalf("final models hash %s with the AVX2 pass, %s without", on, off)
	}
}
