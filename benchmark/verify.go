package main

import (
	"fmt"

	"fedms/internal/attack"
	"fedms/internal/core"
	"fedms/internal/nn"
)

// check is one named output verification. Any failed check makes the
// harness exit non-zero and name it.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkf(name string, ok bool, format string, args ...any) check {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}

// parityRounds is the length of the distributed-vs-engine identity run.
const parityRounds = 10

// checkEngineParity runs w's federation for parityRounds over loopback
// and again through core.Engine on identical learners, and demands the
// same final models bit for bit — the promise DESIGN.md makes for the
// sync runtime ("computes exactly the same models as the in-process
// engine"), codec uploads included. The async lifecycle makes no such
// promise across runtimes (the engine's virtual clock has a fixed
// latency scale the workload overrides), so dist_wide_async is held to
// seeded-rerun identity by the model-hash check alone.
func checkEngineParity(w workload, seed uint64, outDir string) (check, error) {
	const name = "engine_parity"
	w.Rounds = min(w.Rounds, parityRounds)
	res, f, err := runFederation(w, seed, false, outDir)
	if err != nil {
		return check{}, err
	}
	prob, err := quadProblem(w, seed)
	if err != nil {
		return check{}, err
	}
	upload := core.SparseUpload
	if w.FullUpload {
		upload = core.FullUpload
	}
	learners := prob.Learners()
	eng, err := core.NewEngine(core.Config{
		Clients: w.K, Servers: w.P, NumByzantine: w.B, ByzantineIDs: []int{w.Byz},
		Rounds: w.Rounds, LocalSteps: w.LocalSteps, Upload: upload,
		Attack: attack.Noise{}, Filter: f.filter, ServerFilter: f.rule,
		Schedule: nn.ConstantLR(learningRate), Seed: seed, EvalEvery: -1, UploadCodec: f.spec,
	}, learners)
	if err != nil {
		return check{}, err
	}
	eng.Run()
	if err := eng.Close(); err != nil {
		return check{}, err
	}
	models := make([][]float64, w.K)
	for k, l := range learners {
		models[k] = l.Params()
	}
	want := hashModels(models)
	return checkf(name, res.Hash == want,
		"after %d rounds the loopback federation's models hash to %s, core.Engine's to %s", w.Rounds, res.Hash, want), nil
}
