package aggregate

import (
	"strings"
	"testing"
)

// TestRuleNamesRoundTrip: every canonical spec advertised by
// RuleNames() must parse back into a rule whose Name() is well-formed.
// This is the registry's self-consistency contract — a rule added to
// the roster but not the parser (or vice versa) fails here.
func TestRuleNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range RuleNames() {
		rule, err := ParseRule(spec)
		if err != nil {
			t.Errorf("RuleNames() entry %q does not parse: %v", spec, err)
			continue
		}
		if rule.Name() == "" {
			t.Errorf("%q parsed to a rule with an empty Name()", spec)
		}
		head := strings.SplitN(spec, ":", 2)[0]
		if seen[head] {
			t.Errorf("duplicate rule head %q in RuleNames()", head)
		}
		seen[head] = true
	}
}

// TestParseRuleDefaults: arg-less forms must resolve to the documented
// zero-parameter defaults.
func TestParseRuleDefaults(t *testing.T) {
	cases := []struct {
		spec string
		want Rule
	}{
		{"mean", Mean{}},
		{"trim:0.2", TrimmedMean{Beta: 0.2}},
		{"trmean:0.1", TrimmedMean{Beta: 0.1}}, // historical alias
		{"median", CoordinateMedian{}},
		{"krum", Krum{}},
		{"krum:3", Krum{F: 3}},
		{"multikrum:2", MultiKrum{F: 2}},
		{"multikrum:2:4", MultiKrum{F: 2, M: 4}},
		{"bulyan:1", Bulyan{F: 1}},
		{"geomedian", GeoMedian{}},
		{"clip", CenteredClipping{}},
		{"clip:0.5", CenteredClipping{Tau: 0.5}},
		{"fedgreed", FedGreed{}},
		{"losscluster", LossCluster{}},
		{"  mean  ", Mean{}}, // surrounding whitespace is trimmed
	}
	for _, tc := range cases {
		got, err := ParseRule(tc.spec)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseRule(%q) = %#v, want %#v", tc.spec, got, tc.want)
		}
	}
}

// TestParseRuleRejects: malformed specs must come back as errors (never
// panics) mentioning the offending spec, because the CLIs surface them
// verbatim before any socket opens.
func TestParseRuleRejects(t *testing.T) {
	bad := []string{
		"",
		"bogus",
		"trim",      // trim requires a beta argument
		"trim:0.6",  // beta must be < 0.5
		"trim:-0.1", // and non-negative
		"trim:x",
		"trim:NaN", // NaN passes every range comparison
		"clip:NaN",
		"clip:Inf",
		"krum:-1",
		"krum:1:2", // too many args
		"multikrum:1:2:3",
		"bulyan:-2",
		"clip:0",  // tau must be positive
		"clip:-1", //
		"mean:1",  // mean takes no args
		"fedgreed:1",
		"losscluster:0.5",
		"median:2",
		"geomedian:1",
	}
	for _, spec := range bad {
		if _, err := ParseRule(spec); err == nil {
			t.Errorf("ParseRule(%q) accepted, want error", spec)
		}
	}
}

// TestParseRuleErrorNamesGrammar: the unknown-rule error must carry the
// full grammar so a CLI user sees the roster without opening docs.
func TestParseRuleErrorNamesGrammar(t *testing.T) {
	_, err := ParseRule("nosuchrule")
	if err == nil {
		t.Fatal("ParseRule accepted an unknown rule")
	}
	for _, word := range []string{"mean", "krum", "fedgreed", "losscluster"} {
		if !strings.Contains(err.Error(), word) {
			t.Errorf("unknown-rule error %q does not mention %q", err, word)
		}
	}
}
