package nn

import (
	"fmt"
	"math"

	"fedms/internal/tensor"
)

// Loss maps model outputs and integer labels to a scalar loss and the
// gradient of that loss with respect to the outputs.
type Loss interface {
	Name() string
	Forward(output *tensor.Dense, labels []int) (loss float64, grad *tensor.Dense)
}

// SoftmaxCrossEntropy is the standard classification loss: softmax over
// logits followed by negative log likelihood, averaged over the batch.
type SoftmaxCrossEntropy struct{}

// Name implements Loss.
func (SoftmaxCrossEntropy) Name() string { return "softmax_cross_entropy" }

// Forward implements Loss. output must be [N, classes].
func (SoftmaxCrossEntropy) Forward(output *tensor.Dense, labels []int) (float64, *tensor.Dense) {
	if output.Rank() != 2 {
		panic(fmt.Sprintf("nn: cross entropy expects [N, classes], got %v", output.Shape()))
	}
	n, classes := output.Dim(0), output.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	grad := tensor.New(n, classes)
	gd := grad.Data()
	loss := 0.0
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := output.Row(i)
		y := labels[i]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, classes))
		}
		// Numerically stable log-softmax.
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - maxv)
		}
		logZ := maxv + math.Log(sum)
		loss += (logZ - row[y]) * invN
		g := gd[i*classes : (i+1)*classes]
		for j, v := range row {
			g[j] = math.Exp(v-logZ) * invN
		}
		g[y] -= invN
	}
	return loss, grad
}
