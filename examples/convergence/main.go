// Convergence check: Theorem 1 made visible.
//
// Runs Fed-MS on the synthetic strongly convex quadratic problem of
// internal/theory — where the global optimum w* and F* are known in
// closed form — with the theorem's learning-rate schedule
// η_t = 2/(μ(γ+t)), γ = max(8L/μ, E), and prints F(w̄_T) − F* at
// geometrically spaced horizons. If the O(1/T) rate of Theorem 1
// holds, the product T·(F(w̄_T) − F*) approaches a constant.
//
// It then repeats the run with Byzantine Noise servers to show the
// error floor Δ growing with B (the 4P/(P−2B)²·E²G² term).
//
//	go run ./examples/convergence
package main

import (
	"fmt"
	"log"

	"fedms"
	"fedms/internal/aggregate"
	"fedms/internal/core"
	"fedms/internal/theory"
)

func run(byzantine int, rounds int, seed uint64) float64 {
	p, err := theory.NewProblem(theory.ProblemConfig{
		Dim: 20, Clients: 20, Mu: 0.5, L: 4, NoiseStd: 0.3, Spread: 1, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	var atk fedms.Attack = fedms.NoAttack{}
	beta := 0.2
	if byzantine > 0 {
		atk = fedms.NoiseAttack{Sigma: 1}
		beta = float64(byzantine) / 5.0
	}
	eng, err := core.NewEngine(core.Config{
		Clients:      20,
		Servers:      5,
		NumByzantine: byzantine,
		Rounds:       rounds,
		LocalSteps:   2,
		Attack:       atk,
		Filter:       aggregate.TrimmedMean{Beta: beta},
		Schedule:     p.TheorySchedule(2),
		Seed:         seed,
		EvalEvery:    -1,
	}, p.Learners())
	if err != nil {
		log.Fatal(err)
	}
	eng.Run()
	return p.Suboptimality(eng.MeanClientParams())
}

func main() {
	horizons := []int{25, 50, 100, 200, 400, 800}

	fmt.Println("Theorem 1 on strongly convex quadratics (K=20, P=5, E=2, mu=0.5, L=4)")
	fmt.Println("\nno Byzantine servers (B=0):")
	fmt.Printf("%8s  %14s  %14s\n", "T", "F(w)-F*", "T*(F(w)-F*)")
	for _, T := range horizons {
		// Average over seeds to tame SGD noise.
		sub := 0.0
		const seeds = 5
		for s := uint64(0); s < seeds; s++ {
			sub += run(0, T, 1+s)
		}
		sub /= seeds
		fmt.Printf("%8d  %14.6f  %14.4f\n", T, sub, sub*float64(T))
	}

	fmt.Println("\nwith B=2 of 5 Byzantine noise servers (trim beta=0.4):")
	fmt.Printf("%8s  %14s  %14s\n", "T", "F(w)-F*", "T*(F(w)-F*)")
	for _, T := range horizons {
		sub := 0.0
		const seeds = 5
		for s := uint64(0); s < seeds; s++ {
			sub += run(2, T, 1+s)
		}
		sub /= seeds
		fmt.Printf("%8d  %14.6f  %14.4f\n", T, sub, sub*float64(T))
	}

	fmt.Println("\nReading: the error decays roughly as 1/T (T*(F-F*) stays bounded")
	fmt.Println("while T grows 32x), with a larger constant — the Δ error floor of")
	fmt.Println("Theorem 1 — when Byzantine servers are present.")
}
