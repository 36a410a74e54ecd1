package aggregate

import (
	"fmt"

	"fedms/internal/tensor"
)

// CenteredClipping is the iterative clipping aggregator of Karimireddy
// et al. (ICML 2021): starting from a robust anchor v, repeatedly move
// by the average of the clipped residuals,
//
//	v ← v + (1/n) Σ_i clip(x_i − v, τ),
//
// where clip rescales a vector to norm at most τ. Large (Byzantine)
// residuals contribute at most τ each, so the estimate stays near the
// honest cluster while still averaging fine-grained information.
type CenteredClipping struct {
	// Tau is the clipping radius (default: median distance of the
	// inputs to the initial anchor, re-estimated once per call — the
	// radius is a property of the input set, not of the moving
	// iterate).
	Tau float64
	// Iters is the number of clipping iterations (default 3).
	Iters int
}

// Name implements Rule.
func (c CenteredClipping) Name() string {
	if c.Tau > 0 {
		return fmt.Sprintf("centered_clip(tau=%g)", c.Tau)
	}
	return "centered_clip(tau=auto)"
}

// Aggregate implements Rule.
func (c CenteredClipping) Aggregate(vecs [][]float64) []float64 {
	d := checkInputs(vecs, "centered_clip")
	iters := c.Iters
	if iters <= 0 {
		iters = 3
	}
	// Robust anchor: coordinate-wise median.
	v := CoordinateMedian{}.Aggregate(vecs)

	// Per-call auto radius, measured against the initial anchor.
	// Re-estimating inside the iteration loop against the moving
	// iterate (the pre-fix behavior) let the radius shrink as v moved
	// toward a cluster, over-weighting whichever side it drifted to
	// first — and contradicted the documented semantics.
	tau := c.Tau
	if tau <= 0 {
		tau = medianDistance(vecs, v)
		if tau == 0 {
			// All inputs coincide with the anchor; done.
			return v
		}
	}
	resid := make([]float64, d)
	step := make([]float64, d)
	for it := 0; it < iters; it++ {
		for i := range step {
			step[i] = 0
		}
		for _, x := range vecs {
			copy(resid, x)
			tensor.VecSub(resid, v)
			norm := tensor.VecNorm2(resid)
			scale := 1.0
			if norm > tau {
				scale = tau / norm
			}
			tensor.VecAxpy(step, scale/float64(len(vecs)), resid)
		}
		tensor.VecAdd(v, step)
	}
	return v
}

// medianDistance returns the median L2 distance from the vectors to v.
func medianDistance(vecs [][]float64, v []float64) float64 {
	dists := make([]float64, len(vecs))
	for i, x := range vecs {
		dists[i] = tensor.VecDist2(x, v)
	}
	return medianOf(dists, nil, nil)
}

var _ Rule = CenteredClipping{}
