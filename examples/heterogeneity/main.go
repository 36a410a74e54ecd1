// Heterogeneity study: the paper's §VI-D scenario (Figs. 4 and 5).
//
// First prints the per-client class distributions induced by Dirichlet
// splits with D_alpha ∈ {1, 10, 1000} (the paper's Fig. 4), then trains
// Fed-MS under the Noise attack at each heterogeneity level and reports
// the accuracy trajectory (Fig. 5): higher D_alpha (more identical
// client data) converges faster and higher.
//
//	go run ./examples/heterogeneity
package main

import (
	"fmt"
	"log"

	"fedms"
	"fedms/internal/data"
	"fedms/internal/randx"
)

func main() {
	const seed = 1

	// ---- Fig 4: what the Dirichlet parameter does to client data ----
	ds := data.Blobs(data.BlobsConfig{Samples: 6000, Noise: 2.0, Seed: randx.Derive(seed, "demo")})
	for _, alpha := range []float64{1, 10, 1000} {
		parts := data.DirichletPartition(ds.Y, ds.NumClasses, 20, alpha, randx.Derive(seed, "partition"))
		hist := data.LabelHistogram(parts, ds.Y, ds.NumClasses)
		fmt.Printf("D_alpha = %-5g class counts for first 5 clients:\n", alpha)
		for k := 0; k < 5; k++ {
			fmt.Printf("  client %d: %v\n", k, hist[k])
		}
	}

	// ---- Fig 5: accuracy under attack at each heterogeneity level ----
	fmt.Println("\nFed-MS under noise attack (eps=20%, beta=0.2), 30 epochs:")
	for _, alpha := range []float64{1, 5, 10, 1000} {
		res, err := fedms.Run(fedms.Config{
			Clients:      50,
			Servers:      10,
			NumByzantine: 2,
			Rounds:       30,
			LocalSteps:   3,
			FilterRule:   "trim:0.2",
			Attack:       fedms.NoiseAttack{},
			LearningRate: 0.1,
			Dataset: fedms.DatasetSpec{
				Kind:    fedms.DatasetBlobs,
				Samples: 8000,
				Alpha:   alpha,
				Noise:   2.0,
			},
			Model:     fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{64}},
			Seed:      seed,
			EvalEvery: 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  D_alpha = %-5g:", alpha)
		for i, r := range res.Accuracy.Rounds {
			fmt.Printf("  epoch %d: %.3f", r+1, res.Accuracy.Values[i])
		}
		fmt.Println()
	}
	fmt.Println("\nReading: accuracy improves with D_alpha — more homogeneous local data")
	fmt.Println("helps both convergence speed and the final model, as in the paper's Fig. 5.")
}
