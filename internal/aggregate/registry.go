package aggregate

import (
	"fmt"
	"strconv"
	"strings"
)

// RuleGrammar is the one-line spec grammar, for CLI usage strings.
// It mirrors the codec grammar of compress.ParseSpec: a rule name,
// optionally followed by colon-separated numeric parameters.
const RuleGrammar = "mean | trim:<beta> | median | krum[:f] | multikrum[:f[:m]] | bulyan[:f] | geomedian | clip[:tau] | fedgreed | losscluster"

// ParseRule resolves a rule spec string to a Rule. The grammar (see
// RuleGrammar):
//
//	mean              plain averaging (vanilla FL)
//	trim:<beta>       Fed-MS trimmed mean, beta ∈ [0, 0.5)
//	median            coordinate-wise median
//	krum[:f]          Krum with f assumed Byzantine (default 0)
//	multikrum[:f[:m]] Multi-Krum (m defaults to n−f−2 at runtime)
//	bulyan[:f]        Bulyan with f assumed Byzantine (default 0)
//	geomedian         smoothed geometric median (Weiszfeld)
//	clip[:tau]        centered clipping (tau omitted = per-call auto)
//	fedgreed          greedy lowest-holdout-loss prefix average
//	losscluster       two-cluster holdout-loss split
//
// fedgreed and losscluster need a holdout-loss oracle to differ from
// their geometry fallback (coordinate median); the runtimes wire one
// automatically when such a rule is selected. Every error is returned
// (never panicked) so CLIs can validate specs before a socket opens,
// exactly like compress.ParseSpec.
func ParseRule(spec string) (Rule, error) {
	name := strings.TrimSpace(spec)
	var args []string
	if i := strings.IndexByte(name, ':'); i >= 0 {
		args = strings.Split(name[i+1:], ":")
		name = name[:i]
	}
	wantArgs := func(min, max int) error {
		if len(args) < min || len(args) > max {
			return fmt.Errorf("aggregate: rule %q takes %d..%d parameters, got %d in %q", name, min, max, len(args), spec)
		}
		return nil
	}
	floatArg := func(i int) (float64, error) {
		v, err := strconv.ParseFloat(args[i], 64)
		if err != nil {
			return 0, fmt.Errorf("aggregate: bad parameter %q in rule spec %q", args[i], spec)
		}
		return v, nil
	}
	intArg := func(i int) (int, error) {
		v, err := strconv.Atoi(args[i])
		if err != nil || v < 0 {
			return 0, fmt.Errorf("aggregate: bad parameter %q in rule spec %q (want integer ≥ 0)", args[i], spec)
		}
		return v, nil
	}
	switch name {
	case "mean":
		if err := wantArgs(0, 0); err != nil {
			return nil, err
		}
		return Mean{}, nil
	case "trim", "trmean":
		if err := wantArgs(1, 1); err != nil {
			return nil, err
		}
		beta, err := floatArg(0)
		if err != nil {
			return nil, err
		}
		if beta < 0 || beta >= 0.5 {
			return nil, fmt.Errorf("aggregate: trim rate %g out of [0, 0.5) in %q", beta, spec)
		}
		return TrimmedMean{Beta: beta}, nil
	case "median":
		if err := wantArgs(0, 0); err != nil {
			return nil, err
		}
		return CoordinateMedian{}, nil
	case "krum":
		if err := wantArgs(0, 1); err != nil {
			return nil, err
		}
		f := 0
		if len(args) == 1 {
			var err error
			if f, err = intArg(0); err != nil {
				return nil, err
			}
		}
		return Krum{F: f}, nil
	case "multikrum":
		if err := wantArgs(0, 2); err != nil {
			return nil, err
		}
		var f, m int
		var err error
		if len(args) >= 1 {
			if f, err = intArg(0); err != nil {
				return nil, err
			}
		}
		if len(args) == 2 {
			if m, err = intArg(1); err != nil {
				return nil, err
			}
		}
		return MultiKrum{F: f, M: m}, nil
	case "bulyan":
		if err := wantArgs(0, 1); err != nil {
			return nil, err
		}
		f := 0
		if len(args) == 1 {
			var err error
			if f, err = intArg(0); err != nil {
				return nil, err
			}
		}
		return Bulyan{F: f}, nil
	case "geomedian":
		if err := wantArgs(0, 0); err != nil {
			return nil, err
		}
		return GeoMedian{}, nil
	case "clip":
		if err := wantArgs(0, 1); err != nil {
			return nil, err
		}
		tau := 0.0
		if len(args) == 1 {
			var err error
			if tau, err = floatArg(0); err != nil {
				return nil, err
			}
			if tau <= 0 {
				return nil, fmt.Errorf("aggregate: clip radius %g must be positive in %q", tau, spec)
			}
		}
		return CenteredClipping{Tau: tau}, nil
	case "fedgreed":
		if err := wantArgs(0, 0); err != nil {
			return nil, err
		}
		return FedGreed{}, nil
	case "losscluster":
		if err := wantArgs(0, 0); err != nil {
			return nil, err
		}
		return LossCluster{}, nil
	}
	return nil, fmt.Errorf("aggregate: unknown rule %q (known: %s)", spec, RuleGrammar)
}

// RuleNames lists one canonical spec per registered rule — the
// round-trip test feeds each through ParseRule.
func RuleNames() []string {
	return []string{
		"mean", "trim:0.2", "median", "krum:1", "multikrum:1:3",
		"bulyan:1", "geomedian", "clip", "fedgreed", "losscluster",
	}
}
