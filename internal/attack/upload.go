package attack

import (
	"fmt"

	"fedms/internal/randx"
)

// This file implements *client-side* Byzantine behaviours — the
// complementary threat the paper defers to future work ("Considering
// the FEEL problem with both Byzantine PSs and clients will be our
// future work", §VII). A Byzantine client trains normally but uploads
// a tampered local model; benign parameter servers can counter with a
// robust server-side aggregation rule (core.Config.ServerFilter).

// UploadContext is the information available to a Byzantine client
// when it crafts its upload.
type UploadContext struct {
	// Round is the current training round.
	Round int
	// Client is the Byzantine client's index.
	Client int
	// Params is the honestly trained local model w_{k,t,E}. Attacks
	// must not mutate it.
	Params []float64
	// Global is the filtered global model the client started this
	// round from. Attacks must not mutate it.
	Global []float64
	// RNG is a deterministic per-(client, round) stream.
	RNG *randx.RNG
}

// UploadAttack produces a Byzantine client's tampered upload.
type UploadAttack interface {
	Name() string
	// TamperUpload returns a freshly allocated tampered model.
	TamperUpload(ctx *UploadContext) []float64
}

// UploadRandom replaces the upload with uniform random values.
type UploadRandom struct {
	// Lo, Hi bound the uniform interval (defaults -10, 10).
	Lo, Hi float64
}

// Name implements UploadAttack.
func (a UploadRandom) Name() string {
	lo, hi := a.bounds()
	return fmt.Sprintf("upload_random(%g,%g)", lo, hi)
}

func (a UploadRandom) bounds() (float64, float64) {
	if a.Lo == 0 && a.Hi == 0 {
		return -10, 10
	}
	return a.Lo, a.Hi
}

// TamperUpload implements UploadAttack.
func (a UploadRandom) TamperUpload(ctx *UploadContext) []float64 {
	lo, hi := a.bounds()
	out := make([]float64, len(ctx.Params))
	randx.Uniform(ctx.RNG, out, lo, hi)
	return out
}

// ByUploadName returns the client-side attack registered under the
// given name with default parameters; UploadNames lists every name it
// accepts, in lockstep (round-trip tested).
func ByUploadName(name string) (UploadAttack, error) {
	switch name {
	case "upload_random":
		return UploadRandom{}, nil
	default:
		return nil, fmt.Errorf("attack: unknown upload attack %q", name)
	}
}

// UploadNames lists every name ByUploadName accepts, in registration
// order — the -client-attack usage string and the registry round-trip
// test consume it.
func UploadNames() []string { return []string{"upload_random"} }

var _ UploadAttack = UploadRandom{}
