package fedms_test

import (
	"fmt"

	"fedms"
)

// ExampleResolve reproduces the paper's §IV-B worked example with the
// filter Resolve selects by default, the trimmed mean at β = B/P: with
// P = 5 servers and B = 1, trmean_0.2{1,2,3,4,5} drops the smallest
// and largest 20% (1 and 5) and averages the rest.
func ExampleResolve() {
	cfg, err := fedms.Resolve(fedms.Config{Servers: 5, NumByzantine: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(cfg.Filter.Name())
	fmt.Println(cfg.Filter.Aggregate([][]float64{{1}, {2}, {3}, {4}, {5}})[0])
	// Output:
	// trimmed_mean(beta=0.2)
	// 3
}

// ExampleResolve_byzantine shows the filter discarding arbitrary
// Byzantine values: with P = 5 models and B = 1 attacker, β = B/P = 0.2
// trims one value from each side, so the poisoned extreme never enters
// the average. The "mean" rule, Vanilla FL, lets it through.
func ExampleResolve_byzantine() {
	honest := [][]float64{{0.9}, {1.0}, {1.1}, {1.0}}
	byzantine := []float64{1e9} // a Byzantine PS's "global model"
	models := append(honest, byzantine)

	for _, rule := range []string{"", "mean"} {
		cfg, err := fedms.Resolve(fedms.Config{Servers: 5, NumByzantine: 1, FilterRule: rule})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %.2f\n", cfg.Filter.Name(), cfg.Filter.Aggregate(models)[0])
	}
	// Output:
	// trimmed_mean(beta=0.2): 1.03
	// mean: 200000000.80
}

// ExampleRun trains a tiny federation with one Byzantine server running
// the Random attack and prints whether the trimmed-mean filter kept
// training on track.
func ExampleRun() {
	res, err := fedms.Run(fedms.Config{
		Clients:      10,
		Servers:      5,
		NumByzantine: 1,
		Rounds:       10,
		LocalSteps:   2,
		BatchSize:    16,
		FilterRule:   "trim:0.2",
		Attack:       fedms.RandomAttack{},
		LearningRate: 0.2,
		Dataset:      fedms.DatasetSpec{Samples: 1500, Features: 16, NumClasses: 4},
		Model:        fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{16}},
		Seed:         1,
		EvalEvery:    10,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.FinalAccuracy() > 0.8)
	// Output: true
}

// ExampleConfig_vanilla contrasts the same attacked federation without
// the Fed-MS filter: plain averaging lets the Random attack through.
func ExampleConfig_vanilla() {
	cfg := fedms.Config{
		Clients:      10,
		Servers:      5,
		NumByzantine: 1,
		Rounds:       10,
		LocalSteps:   2,
		BatchSize:    16,
		FilterRule:   "mean", // vanilla FL: no trimming
		Attack:       fedms.RandomAttack{},
		LearningRate: 0.2,
		Dataset:      fedms.DatasetSpec{Samples: 1500, Features: 16, NumClasses: 4},
		Model:        fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{16}},
		Seed:         1,
		EvalEvery:    10,
	}
	res, err := fedms.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.FinalAccuracy() < 0.8)
	// Output: true
}
