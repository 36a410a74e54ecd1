package aggregate

import (
	"os"
	"regexp"
	"slices"
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
		{"median", CoordinateMedian{}},
		{"krum", Krum{}},
		{"krum:3", Krum{F: 3}},
		{"geomedian", GeoMedian{}},
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
		"trim:Inf",
		"trim:-Inf",
		"krum:-1",
		"krum:1:2", // too many args
		"mean:1",   // mean takes no args
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
	// Removed rules and the old trim alias are unknown rules, not
	// rules with bad parameters.
	for _, spec := range []string{"trmean:0.1", "multikrum", "multikrum:1:3", "bulyan:1", "clip", "clip:0.5"} {
		_, err := ParseRule(spec)
		if err == nil || !strings.Contains(err.Error(), "unknown rule") || !strings.Contains(err.Error(), RuleGrammar) {
			t.Errorf("ParseRule(%q) = %v, want the unknown-rule error naming %q", spec, err, RuleGrammar)
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

// specHead is a spec's rule name: the text before its first parameter
// or optional-parameter bracket.
func specHead(spec string) string {
	return strings.TrimSpace(spec[:strings.IndexAny(spec+":", ":[")])
}

var readmeRuleRow = regexp.MustCompile("^\\| `([^`]+)` \\|")

// TestReadmeRuleTableMatchesRegistry: README's defense-roster grammar
// block and rule table name the rules RuleNames and RuleGrammar name,
// in the same order, so a rule added to or removed from the registry
// without its documentation (or the other way round) fails here.
func TestReadmeRuleTableMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(data), "\n## Defense roster — aggregation rules\n")
	if !found {
		t.Fatal("README.md has no defense-roster section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	_, grammar, _ := strings.Cut(section, "```\n")
	grammar, _, found = strings.Cut(grammar, "```")
	if !found {
		t.Fatal("README.md's defense roster has no grammar block")
	}
	var table []string
	for _, line := range strings.Split(section, "\n") {
		if m := readmeRuleRow.FindStringSubmatch(line); m != nil {
			table = append(table, specHead(m[1]))
		}
	}
	heads := func(grammar string) []string {
		var out []string
		for _, spec := range strings.Split(grammar, "|") {
			out = append(out, specHead(spec))
		}
		return out
	}
	var names []string
	for _, spec := range RuleNames() {
		names = append(names, specHead(spec))
	}
	for _, c := range []struct {
		what string
		got  []string
	}{
		{"RuleGrammar", heads(RuleGrammar)},
		{"README grammar block", heads(grammar)},
		{"README rule table", table},
	} {
		if !slices.Equal(c.got, names) {
			t.Errorf("%s lists %v; RuleNames() lists %v", c.what, c.got, names)
		}
	}
}
