// Package flagtest holds what the CLI-contract tests of fedflags,
// fedms-node and fedms-sim share: reading a flag set's names and the
// flag tables README.md documents them in, and holding a flag's listed
// values to what its parser accepts.
package flagtest

import (
	"flag"
	"os"
	"regexp"
	"slices"
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

// readmeRows returns the rows of the table under the README heading
// "#### <heading>", up to the next heading.
func readmeRows(t testing.TB, readmePath, heading string) []string {
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
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if tableRow.MatchString(line) {
			rows = append(rows, line)
		}
	}
	return rows
}

// ReadmeFlags returns, sorted, the flags documented by the table under
// the README heading "#### <heading>": the first cell of each row.
func ReadmeFlags(t testing.TB, readmePath, heading string) []string {
	t.Helper()
	var names []string
	for _, row := range readmeRows(t, readmePath, heading) {
		names = append(names, tableRow.FindStringSubmatch(row)[1])
	}
	sort.Strings(names)
	return names
}

// valueList is the a|b|c list of values that follows the first ": " of
// a flag's usage string or README description.
var valueList = regexp.MustCompile(`: ([a-z0-9_]+(?:\|[a-z0-9_]+)*)`)

func values(t testing.TB, where, text string) []string {
	t.Helper()
	m := valueList.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("%s lists no a|b|c values: %q", where, text)
	}
	return strings.Split(m[1], "|")
}

// CheckValues holds the flag called name on fs to the values it lists:
// the list in its usage string must equal the one in its README row
// (under "#### <heading>", with \| unescaped), every listed value must
// parse, and every value of unlisted must not. parse returns nil when
// the command accepts the value for the flag.
func CheckValues(t *testing.T, fs *flag.FlagSet, readmePath, heading, name string, parse func(string) error, unlisted ...string) {
	t.Helper()
	f := fs.Lookup(name)
	if f == nil {
		t.Fatalf("no flag -%s", name)
	}
	usage := values(t, "-"+name+" usage", f.Usage)
	var readme []string
	for _, row := range readmeRows(t, readmePath, heading) {
		if tableRow.FindStringSubmatch(row)[1] == name {
			readme = values(t, "README -"+name+" row", strings.ReplaceAll(row, `\|`, "|"))
		}
	}
	if !slices.Equal(usage, readme) {
		t.Errorf("-%s lists\n usage  %v\n README %v", name, usage, readme)
	}
	for _, v := range usage {
		if err := parse(v); err != nil {
			t.Errorf("-%s %s is listed but rejected: %v", name, v, err)
		}
	}
	for _, v := range unlisted {
		if slices.Contains(usage, v) {
			t.Errorf("-%s lists %s, which the check expects unlisted", name, v)
		}
		if parse(v) == nil {
			t.Errorf("-%s %s is not listed but parses", name, v)
		}
	}
}
