package tmesh

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// docFiles are the prose documents whose Go references must resolve.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// goRef matches a dotted reference that starts with a lower-case package
// name, e.g. keytree.Tree.Flush, split.hop_ns or *overlay.Entry. The
// leading class keeps it from starting inside a path (internal/split.go)
// or in the middle of a longer chain.
var goRef = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)((?:\.\w+)+)`)

// makeRef matches `make` followed by its targets, up to the first word
// that is not one (a VAR=value, say).
var makeRef = regexp.MustCompile(`(?:^|\s)make((?:\s+[a-z][\w-]*)+)`)

// pathRef matches a repo path under one of the source trees.
var pathRef = regexp.MustCompile(`(?:^|[^\w./-])((?:internal|cmd|scripts|bench|examples)/[\w./-]*)`)

// testRef matches a Go test, benchmark or fuzz target name.
var testRef = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z]\w*)`)

// TestDocReferencesResolve checks the backticked references in the prose
// documents against the tree, so deleting code the prose still cites
// fails here:
//   - pkg.Name[.Name] whose pkg is a package under internal/: each
//     capitalised segment must be a name that package declares (func,
//     method, type, field, var or const; test files count, since the
//     docs cite tests). Lower-case segments are ledger metric names
//     (split.hop_ns) or file names (split.go) and are skipped;
//   - make <target>...: each target must be one the Makefile defines;
//   - internal/..., cmd/..., scripts/..., bench/..., examples/...: the
//     path must exist;
//   - TestX, BenchmarkX, FuzzX: some _test.go must declare it.
func TestDocReferencesResolve(t *testing.T) {
	declared := declaredNames(t)
	targets := makeTargets(t)
	tests := testNames(t)
	var goRefs, makeRefs, paths, testRefs int
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range backticked(string(raw)) {
			bad := func(format string, args ...any) {
				t.Errorf("%s:%d: `%s`: %s", doc, ref.line, ref.text, fmt.Sprintf(format, args...))
			}
			for _, m := range goRef.FindAllStringSubmatch(ref.text, -1) {
				names, ok := declared[m[1]]
				if !ok {
					continue // not a package under internal/
				}
				for _, seg := range strings.Split(m[2][1:], ".") {
					if seg == "" || !unicode.IsUpper(rune(seg[0])) {
						continue
					}
					goRefs++
					if !names[seg] {
						bad("package %s declares no %s", m[1], seg)
					}
				}
			}
			for _, m := range makeRef.FindAllStringSubmatch(ref.text, -1) {
				for _, target := range strings.Fields(m[1]) {
					makeRefs++
					if !targets[target] {
						bad("the Makefile has no target %s", target)
					}
				}
			}
			for _, m := range pathRef.FindAllStringSubmatch(ref.text, -1) {
				paths++
				if _, err := os.Stat(strings.TrimRight(m[1], ".")); err != nil {
					bad("no such path %s", m[1])
				}
			}
			for _, m := range testRef.FindAllStringSubmatch(ref.text, -1) {
				testRefs++
				if !tests[m[1]] {
					bad("no _test.go declares %s", m[1])
				}
			}
		}
	}
	t.Logf("checked %d Go references, %d make targets, %d paths, %d test names", goRefs, makeRefs, paths, testRefs)
	// A pattern that silently matched nothing would pass vacuously.
	if goRefs < 50 || makeRefs < 5 || paths < 40 || testRefs < 10 {
		t.Errorf("too few references checked; the extraction is broken")
	}
}

// makeTargets returns the targets the Makefile defines.
func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllStringSubmatch(string(raw), -1) {
		targets[m[1]] = true
	}
	return targets
}

// testNames returns the Test, Benchmark and Fuzz functions declared by
// the _test.go files anywhere in the tree.
func testNames(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	names := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testRef.MatchString(fn.Name.Name) {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

type span struct {
	text string
	line int
}

// backticked returns the inline code spans of a markdown document
// (which may wrap across lines), skipping fenced code blocks.
func backticked(doc string) []span {
	lines := strings.Split(doc, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	var out []span
	line := 1
	for i, part := range strings.Split(strings.Join(lines, "\n"), "`") {
		if i%2 == 1 {
			out = append(out, span{strings.ReplaceAll(part, "\n", " "), line})
		}
		line += strings.Count(part, "\n")
	}
	return out
}

// declaredNames maps each package directory under internal/, by its last
// path element (the name the prose uses), to every name declared at
// package level or as a method, struct field, embedded field or
// interface method, test files included. Function bodies are not
// entered.
func declaredNames(t *testing.T) map[string]map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	names := make(map[string]map[string]bool)
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		set := names[pkg]
		if set == nil {
			set = make(map[string]bool)
			names[pkg] = set
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				return false
			case *ast.FuncDecl:
				set[n.Name.Name] = true
			case *ast.TypeSpec:
				set[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					set[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					set[id.Name] = true
				}
				if len(n.Names) == 0 {
					set[embeddedName(n.Type)] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// embeddedName is the field name an embedded type contributes: T for T,
// *T, pkg.T and T[P].
func embeddedName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return embeddedName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
