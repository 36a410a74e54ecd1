// Package flagtest holds what the CLI-contract tests of fedflags,
// fedms-node and fedms-sim share: reading a flag set's names and the
// flag tables README.md documents them in.
package flagtest

import (
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Names returns the name of every flag declared on fs, sorted.
func Names(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

var tableRow = regexp.MustCompile("^\\| `-([a-z-]+)` \\|")

// ReadmeFlags returns, sorted, the flags documented by the table under
// the README heading "#### <heading>": the first cell of each row, up
// to the next heading.
func ReadmeFlags(t testing.TB, readmePath, heading string) []string {
	t.Helper()
	data, err := os.ReadFile(readmePath)
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(data), "\n#### "+heading+"\n")
	if !found {
		t.Fatalf("%s has no %q section", readmePath, heading)
	}
	section, _, _ = strings.Cut(section, "\n#")
	var names []string
	for _, line := range strings.Split(section, "\n") {
		if m := tableRow.FindStringSubmatch(line); m != nil {
			names = append(names, m[1])
		}
	}
	sort.Strings(names)
	return names
}
