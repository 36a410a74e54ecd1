package attack

import (
	"testing"

	"fedms/internal/randx"
)

func upCtx(params, global []float64, seed uint64) *UploadContext {
	return &UploadContext{
		Round:  1,
		Client: 0,
		Params: params,
		Global: global,
		RNG:    randx.New(seed),
	}
}

func TestUploadRandomIgnoresParams(t *testing.T) {
	a := UploadRandom{}.TamperUpload(upCtx([]float64{1, 2, 3}, nil, 3))
	b := UploadRandom{}.TamperUpload(upCtx([]float64{9, 9, 9}, nil, 3))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("UploadRandom must ignore the honest model")
		}
		if a[i] < -10 || a[i] >= 10 {
			t.Fatalf("UploadRandom sample %v out of range", a[i])
		}
	}
}

func TestByUploadName(t *testing.T) {
	for _, name := range UploadNames() {
		if _, err := ByUploadName(name); err != nil {
			t.Fatalf("ByUploadName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"nope", "upload_signflip", "upload_noise", "upload_scaled"} {
		if _, err := ByUploadName(name); err == nil {
			t.Fatalf("unknown name %q must error", name)
		}
	}
}

func TestUploadAttacksDoNotMutate(t *testing.T) {
	params := []float64{1, 2}
	global := []float64{0.5, 0.5}
	for _, a := range []UploadAttack{UploadRandom{}} {
		ctx := upCtx(append([]float64(nil), params...), append([]float64(nil), global...), 9)
		a.TamperUpload(ctx)
		if ctx.Params[0] != 1 || ctx.Params[1] != 2 || ctx.Global[0] != 0.5 {
			t.Fatalf("%s mutated its context", a.Name())
		}
	}
}
