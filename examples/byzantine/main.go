// Byzantine showdown: the paper's §VI-B scenario in miniature.
//
// Runs all four of the paper's server-side attacks (Noise, Random,
// Safeguard, Backward) against three defences — Fed-MS (β = 0.2),
// Fed-MS⁻ (β = 0.1, trimming less than the Byzantine share) and
// Vanilla FL (plain averaging) — with ε = 20% Byzantine parameter
// servers, and prints the resulting accuracy matrix.
//
//	go run ./examples/byzantine
package main

import (
	"fmt"
	"log"

	"fedms"
	"fedms/internal/metrics"
)

func main() {
	attacks := []struct {
		name string
		atk  fedms.Attack
	}{
		{"noise", fedms.NoiseAttack{}},
		{"random", fedms.RandomAttack{}},
		{"safeguard", fedms.SafeguardAttack{}},
		{"backward", fedms.BackwardAttack{}},
	}
	methods := []struct{ name, rule string }{
		{"Fed-MS (b=0.2)", "trim:0.2"},
		{"Fed-MS- (b=0.1)", "trim:0.1"},
		{"Vanilla FL", "mean"},
	}

	fmt.Println("Byzantine attacks vs defences: 50 clients, 10 servers, 2 Byzantine, 30 epochs")
	fmt.Printf("%-12s", "attack")
	for _, m := range methods {
		fmt.Printf("  %-16s", m.name)
	}
	fmt.Println()

	for _, a := range attacks {
		fmt.Printf("%-12s", a.name)
		for _, m := range methods {
			res, err := fedms.Run(fedms.Config{
				Clients:      50,
				Servers:      10,
				NumByzantine: 2,
				Rounds:       30,
				LocalSteps:   3,
				FilterRule:   m.rule,
				Attack:       a.atk,
				LearningRate: 0.1,
				Dataset: fedms.DatasetSpec{
					Kind:    fedms.DatasetBlobs,
					Samples: 8000,
					Alpha:   10,
					Noise:   2.0,
				},
				Model:     fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{64}},
				Seed:      1,
				EvalEvery: 5,
			})
			if err != nil {
				log.Fatal(err)
			}
			spark := metrics.Sparkline(res.Accuracy.Values, 0, 1)
			fmt.Printf("  %.3f %s", res.FinalAccuracy(), spark)
		}
		fmt.Println()
	}
	fmt.Println("\nReading: Fed-MS should stay near the clean ceiling (~0.78) under every")
	fmt.Println("attack; Vanilla collapses under Random and degrades under Noise.")
}
