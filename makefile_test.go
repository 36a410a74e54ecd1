package fedms_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	makeVar  = regexp.MustCompile(`^([A-Z_]+)\s*\??=\s*(.*)$`)
	makeRef  = regexp.MustCompile(`\$\(([A-Z_]+)\)`)
	runFlag  = regexp.MustCompile(`-run '([^']*)'`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	fuzzDecl = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
)

// makeVars returns the variables makefile assigns with = or ?=, a
// backslash-continued value joined into one line.
func makeVars(makefile string) map[string]string {
	vars := map[string]string{}
	for _, line := range strings.Split(strings.ReplaceAll(makefile, "\\\n", " "), "\n") {
		if m := makeVar.FindStringSubmatch(line); m != nil {
			vars[m[1]] = m[2]
		}
	}
	return vars
}

// runStage is one `go test -run '<re>'` line of a make target, with its
// variables expanded: the -run pattern and the package patterns.
type runStage struct {
	re   string
	pkgs []string
}

// runStages returns the `go test -run` lines of target in makefile,
// with every $(VAR) expanded and $$ turned into $.
func runStages(t *testing.T, makefile, target string) []runStage {
	t.Helper()
	vars := makeVars(makefile)
	lines := strings.Split(makefile, "\n")
	var expand func(string, int) string
	expand = func(s string, depth int) string {
		if depth > 10 {
			t.Fatalf("Makefile variables nest too deep in %q", s)
		}
		return makeRef.ReplaceAllStringFunc(s, func(ref string) string {
			return expand(vars[makeRef.FindStringSubmatch(ref)[1]], depth+1)
		})
	}
	var stages []runStage
	in := false
	for _, line := range lines {
		if strings.HasPrefix(line, target+":") {
			in = true
			continue
		}
		if !in {
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			break
		}
		line = strings.ReplaceAll(expand(line, 0), "$$", "$")
		m := runFlag.FindStringSubmatch(line)
		if m == nil || !strings.Contains(line, " test ") {
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		stages = append(stages, runStage{re: m[1], pkgs: pkgs})
	}
	if !in {
		t.Fatalf("Makefile has no %s target", target)
	}
	return stages
}

// topLevelAlternatives splits re on the | that sit outside parentheses
// and brackets.
func topLevelAlternatives(re string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, re[start:])
}

// declaredTests returns the Test, Fuzz and Benchmark functions declared
// in the _test.go files of the package patterns (a trailing /... takes
// every package below the directory).
func declaredTests(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != dir && !recursive {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// unmatchedAlternatives returns the alternatives of stage's -run pattern
// that select no test in stage's packages. go test matches a pattern's
// first /-separated element against top-level names.
func unmatchedAlternatives(t *testing.T, stage runStage) []string {
	t.Helper()
	names := declaredTests(t, stage.pkgs)
	var missing []string
	for _, alt := range topLevelAlternatives(stage.re) {
		top, _, _ := strings.Cut(alt, "/")
		re, err := regexp.Compile(top)
		if err != nil {
			t.Errorf("-run alternative %q: %v", alt, err)
			continue
		}
		hit := false
		for _, name := range names {
			if re.MatchString(name) {
				hit = true
				break
			}
		}
		if !hit {
			missing = append(missing, alt)
		}
	}
	return missing
}

// TestVerifyStagesRunTests: every alternative of every `go test -run`
// stage of `make verify` selects at least one test in the packages its
// line names, so renaming or deleting a test that a stage gates fails
// here instead of leaving the stage silently running nothing.
func TestVerifyStagesRunTests(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	stages := runStages(t, string(src), "verify")
	if len(stages) == 0 {
		t.Fatal("make verify has no go test -run stage")
	}
	for _, stage := range stages {
		if missing := unmatchedAlternatives(t, stage); len(missing) > 0 {
			t.Errorf("make verify: -run alternatives %q match no test in %v", missing, stage.pkgs)
		}
	}
}

// TestVerifyStagesCheckCatchesRenames: the check above reports an
// alternative that names no test, through a variable and $$ alike.
func TestVerifyStagesCheckCatchesRenames(t *testing.T) {
	const makefile = "GO ?= go\n" +
		"STAGE = TestVerifyStagesRunTests$$|TestNoSuchTest|(TestVerifyStages|Nope)\n" +
		"verify:\n" +
		"\t$(GO) test -race -run '$(STAGE)' ./\n" +
		"\n"
	stages := runStages(t, makefile, "verify")
	if len(stages) != 1 || stages[0].re != "TestVerifyStagesRunTests$|TestNoSuchTest|(TestVerifyStages|Nope)" {
		t.Fatalf("runStages = %+v", stages)
	}
	missing := unmatchedAlternatives(t, stages[0])
	if len(missing) != 1 || missing[0] != "TestNoSuchTest" {
		t.Fatalf("unmatched alternatives = %q, want [TestNoSuchTest]", missing)
	}
}

// TestFuzzTargetsListed: FUZZ_TARGETS, the list `make fuzz` (and so
// CI) fuzzes, names every Fuzz function declared in the module's test
// files, as package directory:name, and nothing else — a new target is
// fuzzed from the day it is written, and a renamed one cannot leave the
// list fuzzing nothing.
func TestFuzzTargetsListed(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^fuzz:\n(\t.*\n)*\t.*\$\(FUZZ_TARGETS\)`).Match(src) {
		t.Fatal("make fuzz does not run $(FUZZ_TARGETS)")
	}
	listed := strings.Fields(makeVars(string(src))["FUZZ_TARGETS"])
	var declared []string
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir // another module: go test from here cannot reach it
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range fuzzDecl.FindAllStringSubmatch(string(src), -1) {
			declared = append(declared, "./"+filepath.ToSlash(filepath.Dir(p))+"/:"+m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range declared {
		if !slices.Contains(listed, d) {
			t.Errorf("FUZZ_TARGETS lacks %s", d)
		}
	}
	for _, l := range listed {
		if !slices.Contains(declared, l) {
			t.Errorf("FUZZ_TARGETS names %s, which no test file declares", l)
		}
	}
}
