package experiments

import (
	"fmt"
	"math"

	"fedms"
	"fedms/internal/attack"
)

// RepeatedResult aggregates accuracy curves over repeated runs with
// different seeds: per evaluated round, the mean and (population)
// standard deviation of test accuracy, plus the per-seed finals.
type RepeatedResult struct {
	Rounds []int
	Mean   []float64
	Std    []float64
	// Finals holds each seed's final accuracy, in seed order.
	Finals []float64
}

// FinalMean returns the mean final accuracy.
func (r *RepeatedResult) FinalMean() float64 {
	if len(r.Mean) == 0 {
		panic("experiments: empty repeated result")
	}
	return r.Mean[len(r.Mean)-1]
}

// FinalStd returns the standard deviation of the final accuracy.
func (r *RepeatedResult) FinalStd() float64 {
	if len(r.Std) == 0 {
		panic("experiments: empty repeated result")
	}
	return r.Std[len(r.Std)-1]
}

// MethodStats pairs a method label with its seed-aggregated result.
type MethodStats struct {
	Name   string
	Result *RepeatedResult
}

// Fig2Stats runs the Fig. 2 comparison (Fed-MS, Fed-MS⁻, Vanilla under
// one attack) across several seeds and returns mean ± std final
// accuracies — the variance quantification the single-seed figure
// lacks.
func Fig2Stats(attackName string, seeds int, o Options) ([]MethodStats, error) {
	o = o.withDefaults()
	atk, err := attack.ByName(attackName)
	if err != nil {
		return nil, err
	}
	if seeds <= 0 {
		seeds = 3
	}
	seedList := make([]uint64, seeds)
	for i := range seedList {
		seedList[i] = o.Seed + uint64(i)
	}
	out := make([]MethodStats, 0, len(fig2Methods))
	b := o.Servers / 5
	for _, m := range fig2Methods {
		cfg := baseConfig(o, 10)
		cfg.NumByzantine = b
		cfg.Attack = atk
		cfg.FilterRule = m.rule
		res, err := Repeated(cfg, seedList)
		if err != nil {
			return nil, err
		}
		out = append(out, MethodStats{Name: m.name, Result: res})
	}
	return out, nil
}

// Repeated runs the configuration once per seed and aggregates the
// accuracy curves. All runs must evaluate on the same rounds (they do,
// since EvalEvery is part of the config).
func Repeated(cfg fedms.Config, seeds []uint64) (*RepeatedResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: Repeated needs at least one seed")
	}
	var curves [][]float64
	var rounds []int
	finals := make([]float64, 0, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		res, err := fedms.Run(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", seed, err)
		}
		if res.Accuracy.Len() == 0 {
			return nil, fmt.Errorf("experiments: seed %d recorded no evaluations (EvalEvery=%d)", seed, cfg.EvalEvery)
		}
		if i == 0 {
			rounds = append([]int(nil), res.Accuracy.Rounds...)
		} else if len(res.Accuracy.Rounds) != len(rounds) {
			return nil, fmt.Errorf("experiments: seed %d evaluated %d rounds, want %d", seed, len(res.Accuracy.Rounds), len(rounds))
		}
		curves = append(curves, append([]float64(nil), res.Accuracy.Values...))
		finals = append(finals, res.FinalAccuracy())
	}

	n := len(rounds)
	mean := make([]float64, n)
	std := make([]float64, n)
	for j := 0; j < n; j++ {
		for _, c := range curves {
			mean[j] += c[j]
		}
		mean[j] /= float64(len(curves))
		for _, c := range curves {
			d := c[j] - mean[j]
			std[j] += d * d
		}
		std[j] = math.Sqrt(std[j] / float64(len(curves)))
	}
	return &RepeatedResult{Rounds: rounds, Mean: mean, Std: std, Finals: finals}, nil
}
