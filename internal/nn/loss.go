package nn

import (
	"fmt"
	"math"

	"fedms/internal/tensor"
)

// Loss maps model outputs and integer labels to a scalar loss and, when
// grad is non-nil, writes the gradient of that loss with respect to the
// outputs into grad, which has output's shape. The caller owns grad, so
// a training loop reuses one buffer across steps.
type Loss interface {
	Name() string
	Forward(output *tensor.Dense, labels []int, grad *tensor.Dense) (loss float64)
}

// SoftmaxCrossEntropy is the standard classification loss: softmax over
// logits followed by negative log likelihood, averaged over the batch.
type SoftmaxCrossEntropy struct{}

// Name implements Loss.
func (SoftmaxCrossEntropy) Name() string { return "softmax_cross_entropy" }

// Forward implements Loss. output must be [N, classes].
func (SoftmaxCrossEntropy) Forward(output *tensor.Dense, labels []int, grad *tensor.Dense) float64 {
	if output.Rank() != 2 {
		panic(fmt.Sprintf("nn: cross entropy expects [N, classes], got %v", output.Shape()))
	}
	n, classes := output.Dim(0), output.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	var gd []float64
	if grad != nil {
		if !grad.SameShape(output) {
			panic(fmt.Sprintf("nn: cross entropy gradient %v for output %v", grad.Shape(), output.Shape()))
		}
		gd = grad.Data()
	}
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
		if gd == nil {
			continue
		}
		g := gd[i*classes : (i+1)*classes]
		for j, v := range row {
			g[j] = math.Exp(v-logZ) * invN
		}
		g[y] -= invN
	}
	return loss
}
