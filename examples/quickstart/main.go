// Quickstart: the smallest useful Fed-MS run.
//
// Ten clients train a classifier through five parameter servers, one of
// which is Byzantine and replaces its aggregate with random values.
// The trimmed-mean model filter (β = B/P = 0.2) keeps training on
// track; set FilterRule to "mean" to watch vanilla averaging fail.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"fedms"
)

func main() {
	cfg := fedms.Config{
		Clients:      10,
		Servers:      5,
		NumByzantine: 1,
		Rounds:       20,
		LocalSteps:   3,
		FilterRule:   "trim:0.2", // Fed-MS filter; "mean" for vanilla FL
		Attack:       fedms.RandomAttack{},
		LearningRate: 0.2,
		Dataset: fedms.DatasetSpec{
			Kind:    fedms.DatasetBlobs,
			Samples: 4000,
			Alpha:   10, // mildly non-iid Dirichlet split
			Noise:   2.0,
		},
		Model:     fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{64}},
		Seed:      1,
		EvalEvery: 5,
	}

	res, err := fedms.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Fed-MS quickstart: 10 clients, 5 servers, 1 Byzantine (random attack)")
	for i, round := range res.Accuracy.Rounds {
		fmt.Printf("  epoch %2d: test accuracy %.3f\n", round+1, res.Accuracy.Values[i])
	}
	fmt.Printf("final accuracy: %.3f (chance is 0.100)\n", res.FinalAccuracy())
}
