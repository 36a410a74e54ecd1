package nn

import "fedms/internal/tensor"

// Network couples a layer graph with a loss function and caches the
// parameter list. It is the trainable unit held by each Fed-MS client.
type Network struct {
	body    Layer
	loss    Loss
	grad    outCache // the loss gradient TrainBatch back-propagates
	params  []*Param
	workers int
}

// NewNetwork constructs a network from a body layer (usually a
// Sequential) and a loss. It marks the body's input layer (see
// markInputLayer), so the layers must not be shared with a network
// that needs its input gradient.
func NewNetwork(body Layer, loss Loss) *Network {
	markInputLayer(body)
	return &Network{body: body, loss: loss, params: body.Params()}
}

// markInputLayer marks the first parametric leaf of l — reached through
// Sequentials' first elements, past parameter-free layers such as
// Flatten — to skip its input gradient: that is the gradient with
// respect to the network's input, which TrainBatch discards, and no
// layer before it has parameters to update. Only a Dense or Conv2D is
// marked; any other first parametric layer (a Residual, a BatchNorm2D)
// leaves the network unmarked. It reports whether a parametric layer
// was reached.
func markInputLayer(l Layer) bool {
	switch v := l.(type) {
	case *Sequential:
		for _, inner := range v.layers {
			if markInputLayer(inner) {
				return true
			}
		}
		return false
	case *Dense:
		v.skipDX = true
		return true
	case *Conv2D:
		v.skipDX = true
		return true
	}
	return len(l.Params()) > 0
}

// Params returns the network's parameters in stable order.
func (n *Network) Params() []*Param { return n.params }

// SetWorkers threads a goroutine budget to every layer whose kernels can
// fan out (Dense, Conv2D). Results are bit-identical for any worker
// count — the GEMM kernels only repartition output rows — so this is
// purely a throughput knob.
func (n *Network) SetWorkers(w int) {
	n.workers = w
	setLayerWorkers(n.body, w)
}

// Workers reports the goroutine budget set by SetWorkers (0 when unset).
func (n *Network) Workers() int { return n.workers }

// NumParams returns the total scalar parameter count (including
// batch-norm state).
func (n *Network) NumParams() int { return NumParams(n.params) }

// Forward runs the network on a batch.
func (n *Network) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	return n.body.Forward(x, train)
}

// TrainBatch runs one forward/backward pass on a batch, leaving
// gradients accumulated in the parameters, and returns the batch loss.
// Callers zero gradients (ZeroGrads) and step an optimizer around it.
func (n *Network) TrainBatch(x *tensor.Dense, labels []int) float64 {
	out := n.body.Forward(x, true)
	grad := n.grad.like(out)
	loss := n.loss.Forward(out, labels, grad)
	n.body.Backward(grad)
	return loss
}

// EvalBatch returns the loss and number of correct top-1 predictions on
// a batch without touching gradients or training-time state.
func (n *Network) EvalBatch(x *tensor.Dense, labels []int) (loss float64, correct int) {
	out := n.body.Forward(x, false)
	loss = n.loss.Forward(out, labels, nil)
	classes := out.Dim(1)
	for i := 0; i < out.Dim(0); i++ {
		row := out.Row(i)
		best, arg := row[0], 0
		for j := 1; j < classes; j++ {
			if row[j] > best {
				best, arg = row[j], j
			}
		}
		if arg == labels[i] {
			correct++
		}
	}
	return loss, correct
}

// FlatParams returns the network parameters as one flat vector.
func (n *Network) FlatParams() []float64 { return FlattenParams(n.params) }

// SetFlatParams loads a flat vector into the network parameters.
func (n *Network) SetFlatParams(flat []float64) { SetFlat(n.params, flat) }

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() { ZeroGrads(n.params) }
