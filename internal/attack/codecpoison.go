package attack

import (
	"fmt"
	"math"

	"fedms/internal/compress"
)

// CodecPoison is a codec-aware sparse-index poisoning attack: an
// ALIE-style within-spread shift concentrated on the top-k(|μ|)
// coordinate support — exactly the coordinates a magnitude top-k
// codec keeps and the ones that move the model most. Off-support
// coordinates disseminate the benign mean μ unchanged; on-support
// coordinates send μ_i − z·σ_i·sign(μ_i), shrinking the model's
// dominant weights toward zero while every per-coordinate value stays
// inside the benign spread. A naive "huge spike on sparse indices"
// attack dies to per-coordinate trimming (B identical outliers are
// exactly what the trim removes); this one survives it for the same
// reason ALIE does, but needs far fewer poisoned coordinates. In the
// distributed runtime (no collusion channel) benignStats degrades to
// (own aggregate, zero std) and the attack becomes honest, like ALIE.
type CodecPoison struct {
	// Z is the shift in benign standard deviations (default 1.5 —
	// larger than ALIE's default because only Ratio·d coordinates
	// carry it).
	Z float64
	// Ratio is the poisoned fraction of coordinates (default 0.05),
	// matching the keep-ratio of the topk codecs it targets.
	Ratio float64
}

// Name implements Attack.
func (a CodecPoison) Name() string {
	return fmt.Sprintf("codecpoison(z=%g,ratio=%g)", a.z(), a.ratio())
}

func (a CodecPoison) z() float64 {
	if a.Z == 0 {
		return 1.5
	}
	return a.Z
}

func (a CodecPoison) ratio() float64 {
	if a.Ratio == 0 {
		return 0.05
	}
	return a.Ratio
}

// Equivocates implements Attack.
func (CodecPoison) Equivocates() bool { return false }

// Tamper implements Attack.
func (a CodecPoison) Tamper(ctx *Context) []float64 {
	mean, std := benignStats(ctx)
	d := len(mean)
	out := make([]float64, d)
	copy(out, mean)

	k := int(math.Ceil(a.ratio() * float64(d)))
	if k < 1 {
		k = 1
	}
	if k > d {
		k = d
	}
	// Top-k support by |μ|, index tie-break for determinism.
	z := a.z()
	for _, i := range compress.TopKIndices(mean, k) {
		s := 1.0
		if mean[i] < 0 {
			s = -1
		}
		out[i] = mean[i] - z*std[i]*s
	}
	return out
}
