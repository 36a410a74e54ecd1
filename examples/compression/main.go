// Compression: shrinking what each client uploads.
//
// Fed-MS's sparse uploading reduces *how many* uploads cross the edge
// network (K instead of K×P); a codec reduces *how large* each upload
// is. This example takes a real trained model from a Fed-MS run and
// reports, for each codec spec, the payload size and the
// reconstruction error — then demonstrates why biased sparsifiers need
// error feedback, using compressed-gradient descent on a toy problem.
// Every payload takes the path a federation's does: Spec → Codec →
// AppendEncode out, ParsePayload back in.
//
//	go run ./examples/compression
package main

import (
	"fmt"
	"log"

	"fedms"
	"fedms/internal/compress"
	"fedms/internal/tensor"
)

func main() {
	// Train a small federation to get a realistic model vector.
	res, err := fedms.Run(fedms.Config{
		Clients:      10,
		Servers:      5,
		NumByzantine: 1,
		Rounds:       15,
		LocalSteps:   3,
		FilterRule:   "trim:0.2",
		Attack:       fedms.NoiseAttack{},
		LearningRate: 0.2,
		Dataset:      fedms.DatasetSpec{Samples: 4000, Alpha: 10, Noise: 2.0},
		Model:        fedms.ModelSpec{Kind: fedms.ModelMLP, Hidden: []int{64}},
		Seed:         1,
		EvalEvery:    -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	model := res.Engine.MeanClientParams()
	raw := 8 * len(model)
	norm := tensor.VecNorm2(model)
	fmt.Printf("trained model: %d parameters, %d bytes raw, L2 norm %.2f\n\n", len(model), raw, norm)

	fmt.Printf("%-22s  %10s  %8s  %12s\n", "codec", "bytes", "ratio", "rel. error")
	for _, spec := range []string{"topk:0.1", "topk:0.01", "randk:0.1", "q8", "q4"} {
		rec, n := roundTrip(newCodec(spec, 7), model)
		errNorm := tensor.VecDist2(rec, model) / norm
		fmt.Printf("%-22s  %10d  %7.1fx  %12.4f\n", spec, n, float64(raw)/float64(n), errNorm)
	}

	// Error feedback: why biased sparsifiers still converge over rounds.
	fmt.Println("\ncompressed gradient descent on ½‖w−c‖² (top-1 of 4 coords, 60 steps):")
	c := []float64{10, 1, 0.1, 0.01}
	for _, spec := range []string{"topk:0.25", "ef+topk:0.25"} {
		codec := newCodec(spec, 0)
		w := make([]float64, len(c))
		grad := make([]float64, len(c))
		for i := 0; i < 60; i++ {
			for j := range grad {
				grad[j] = w[j] - c[j]
			}
			update, _ := roundTrip(codec, grad)
			tensor.VecAxpy(w, -0.5, update)
		}
		fmt.Printf("  %-26s final distance to optimum: %.3e\n", spec, tensor.VecDist2(w, c))
	}
	fmt.Println("\nReading: plain top-1 starves the small coordinates until the large ones")
	fmt.Println("have fully converged; the residual accumulator flushes them much earlier,")
	fmt.Println("converging orders of magnitude faster at any fixed budget.")
}

// newCodec builds a fresh codec instance for spec.
func newCodec(spec string, seed uint64) compress.Codec {
	sp, err := compress.ParseSpec(spec)
	if err != nil {
		log.Fatal(err)
	}
	c, err := sp.NewCodec(seed)
	if err != nil {
		log.Fatal(err)
	}
	return c
}

// roundTrip encodes v with c and reads the payload back the way a
// receiver does, returning the reconstruction and the payload size.
func roundTrip(c compress.Codec, v []float64) ([]float64, int) {
	enc, payload := c.AppendEncode(nil, v)
	view, err := compress.ParsePayload(enc, payload)
	if err != nil {
		log.Fatal(err)
	}
	return view.DenseView(), len(payload)
}
