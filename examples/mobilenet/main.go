// MobileNet V2 under attack: the paper's model/dataset pairing, scaled
// to a single CPU core.
//
// Trains the real MobileNet V2 architecture (inverted residual blocks,
// depthwise convolutions, batch norm, ReLU6 — width-multiplied down to
// 0.25) on the SynthImage procedural image dataset through 5 parameter
// servers, one of which runs the Noise attack, and compares Fed-MS's
// trimmed-mean filter to vanilla averaging.
//
//	go run ./examples/mobilenet
//
// Expect about 30 s of runtime on a 2-vCPU machine: deep batch-norm
// networks warm up slowly. Each client resets its momentum at the start
// of every round, so the learning rate (0.3) is set for ten steps from
// rest. The point of this example is that the full paper pipeline —
// convolutional model, image data, Byzantine servers, robust filter —
// runs end to end.
package main

import (
	"fmt"
	"log"
	"time"

	"fedms"
)

func run(filterRule, label string) float64 {
	start := time.Now()
	res, err := fedms.Run(fedms.Config{
		Clients:      4,
		Servers:      5,
		NumByzantine: 1,
		Rounds:       15,
		LocalSteps:   10,
		BatchSize:    16,
		FilterRule:   filterRule,
		Attack:       fedms.NoiseAttack{},
		LearningRate: 0.3,
		Momentum:     0.9,
		Dataset: fedms.DatasetSpec{
			Kind:       fedms.DatasetSynthImage,
			Samples:    1200,
			Resolution: 8,
			NumClasses: 4,
		},
		Model:       fedms.ModelSpec{Kind: fedms.ModelMobileNetV2, WidthMult: 0.25},
		Seed:        1,
		EvalEvery:   3,
		EvalClients: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (%3.0fs):", label, time.Since(start).Seconds())
	for i, r := range res.Accuracy.Rounds {
		fmt.Printf("  e%d=%.3f", r+1, res.Accuracy.Values[i])
	}
	fmt.Println()
	return res.FinalAccuracy()
}

func main() {
	fmt.Println("MobileNet V2 (width 0.25) on SynthImage (4 classes, chance = 0.25)")
	fmt.Println("4 clients / 5 servers / 1 Byzantine noise-attacker")
	fedmsAcc := run("trim:0.2", "Fed-MS (beta=0.2)")
	vanillaAcc := run("mean", "Vanilla FL       ")
	fmt.Printf("\nFed-MS %.3f vs Vanilla %.3f — the Gaussian-noise PS dominates the\n", fedmsAcc, vanillaAcc)
	fmt.Println("unfiltered average while the trimmed-mean filter trains through it.")
}
