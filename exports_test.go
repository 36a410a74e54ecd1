package fedms

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOracles are the exported internal names that only tests call on
// purpose: each is a reference implementation or fixture that the tests
// of live code compare against or build on.
var testOracles = map[string]string{
	"internal/compress.DecodePayload":  "reference decoder the fused payload paths and the fuzz targets compare against",
	"internal/transport.Encode":        "allocating frame encoder the wire, golden and fuzz tests build frames with",
	"internal/transport.Decode":        "unbounded frame decoder the wire and fuzz tests read frames with",
	"internal/transport.DecodeBounded": "bounded decoder the oversize-claim and allocation gates call directly",
	"internal/aggregate.RuleNames":     "registry listing the contract tests run every rule over",
	"internal/golden.Check":            "golden-file comparison the wire and disk format tests share",
}

// TestNoTestOnlyExports keeps code without a caller out of internal/:
// every exported top-level func, type, var or const declared under
// internal/ must be referenced by some non-test file other than through
// its own declaration — as a bare identifier in its own directory, or
// as a pkg.Name selector anywhere (benchmark/ included, which counts as
// a caller only). A reference from inside another such name counts only
// if that name is reached itself, so a constructor only tests call does
// not keep its type alive. Methods are out of scope, since interfaces
// satisfy them implicitly. A name only tests reach is either deleted
// with its tests or, if it is a test oracle, listed in testOracles with
// the reason.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // "dir.Name" -> declaration
	// refs maps a checked name to the names its declaration references;
	// the "" entry holds the references from everything else: methods,
	// unexported declarations and every file outside internal/.
	refs := map[string][]string{}

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{} // local name -> directory in the module
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if rel, ok := strings.CutPrefix(ip, "fedms/"); ok {
				name := path.Base(rel)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = rel
			}
		}
		// declare records name as checked if it is an exported name under
		// internal/ and returns its key, or "" if it is not checked.
		declare := func(name *ast.Ident) string {
			if !strings.HasPrefix(dir, "internal/") || !name.IsExported() {
				return ""
			}
			key := dir + "." + name.Name
			declared[key] = fset.Position(name.Pos())
			return key
		}
		// inspect records what nodes reference as references from the
		// checked name from; own holds the names the declaration itself
		// introduces, so a recursive call or a self-typed field is no
		// reference.
		inspect := func(from string, own map[string]bool, nodes ...ast.Node) {
			for _, n := range nodes {
				ast.Inspect(n, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok {
							if rel, ok := imports[x.Name]; ok {
								refs[from] = append(refs[from], rel+"."+n.Sel.Name)
								return false
							}
						}
					case *ast.Ident:
						if !own[n.Name] {
							refs[from] = append(refs[from], dir+"."+n.Name)
						}
					}
					return true
				})
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				nodes := []ast.Node{decl.Type}
				if decl.Body != nil {
					nodes = append(nodes, decl.Body)
				}
				if decl.Recv != nil {
					// A method is no use of its own type: a type that only
					// its methods name has no caller.
					inspect("", map[string]bool{receiverType(decl.Recv.List[0].Type): true}, nodes...)
					continue
				}
				inspect(declare(decl.Name), map[string]bool{decl.Name.Name: true}, nodes...)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					var names []*ast.Ident
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{spec.Name}
					case *ast.ValueSpec:
						names = spec.Names
					}
					own := map[string]bool{}
					from := ""
					for _, n := range names {
						own[n.Name] = true
						if key := declare(n); key != "" {
							from = key
						}
					}
					inspect(from, own, spec)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reached := map[string]bool{}
	var walk func(from string)
	walk = func(from string) {
		for _, to := range refs[from] {
			if !reached[to] {
				reached[to] = true
				walk(to)
			}
		}
	}
	walk("")
	for name := range testOracles {
		switch _, ok := declared[name]; {
		case !ok:
			t.Errorf("testOracles lists %s, which is not declared", name)
		case reached[name]:
			t.Errorf("%s has a non-test caller now; drop it from testOracles", name)
		}
	}
	// An oracle is a root of its own: what it calls is reached too.
	for name := range testOracles {
		reached[name] = true
		walk(name)
	}

	var orphans []string
	for name, pos := range declared {
		if !reached[name] {
			orphans = append(orphans, pos.String()+": "+name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("only tests reach %s: delete it with its tests, or list it in testOracles with the reason", o)
	}
}

// receiverType returns the type name of a method receiver, T or *T.
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
