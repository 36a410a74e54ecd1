// Two-sided Byzantine federation: the paper's stated future work,
// running today.
//
// The paper defends against Byzantine *servers* and defers "the FEEL
// problem with both Byzantine PSs and clients" to future work (§VII).
// This example runs exactly that: 20% of clients upload random models
// AND 20% of servers tamper with their dissemination, and shows the
// two-layer defence — robust aggregation at the servers (against bad
// clients) plus the trimmed-mean filter at the clients (against bad
// servers) — recovering the clean ceiling.
//
//	go run ./examples/twosided
package main

import (
	"fmt"
	"log"

	"fedms"
)

func run(serverRule, filterRule, label string) {
	cfg := fedms.Config{
		Clients:      20,
		Servers:      5,
		Rounds:       25,
		LocalSteps:   3,
		Upload:       fedms.FullUpload, // robust server rules need to see all clients
		LearningRate: 0.15,

		// Server-side threat: one Byzantine PS running the Noise attack.
		NumByzantine: 1,
		Attack:       fedms.NoiseAttack{},
		FilterRule:   filterRule,

		// Client-side threat: 4 of 20 clients upload random models.
		NumByzantineClients: 4,
		ClientAttack:        fedms.UploadRandom{},
		ServerRule:          serverRule,

		Dataset:   fedms.DatasetSpec{Samples: 6000, Alpha: 10, Noise: 2.0},
		Model:     fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{64}},
		Seed:      1,
		EvalEvery: 5,
	}
	res, err := fedms.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-42s", label)
	for i, r := range res.Accuracy.Rounds {
		fmt.Printf("  e%d=%.3f", r+1, res.Accuracy.Values[i])
	}
	fmt.Println()
}

func main() {
	fmt.Println("Two-sided Byzantine FEEL: 4/20 clients upload random models,")
	fmt.Println("1/5 servers runs the noise attack. Chance = 0.100.")
	fmt.Println()
	run("mean", "trim:0.2", "averaging servers + trimmed clients")
	run("trim:0.2", "trim:0.2", "trimmed servers + trimmed clients")
	run("trim:0.2", "mean", "trimmed servers + averaging clients")
	fmt.Println()
	fmt.Println("Reading: each side's filter defeats its side's attackers. Only the")
	fmt.Println("configuration with robust aggregation at BOTH layers reaches the")
	fmt.Println("clean ceiling (~0.78); dropping either one lets its attack through.")
}
