// Command dead is the dead-export ratchet behind `make dead`: it lists
// the exported funcs and methods declared in non-test files under
// internal/ whose name no non-test file under internal/, cmd/,
// examples/ or bench/ mentions anywhere else, and fails when there are
// more than -budget of them.
//
// The match is by name only (go/parser, no type checking): a method
// reached only through an interface of another package's (String,
// Error) counts as dead, and one live Foo keeps every Foo alive. That
// is coarse, and enough for a budget that may only go down.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	budget := flag.Int("budget", 0, "fail when more than this many exported funcs are unreferenced")
	flag.Parse()

	fset := token.NewFileSet()
	mentions := make(map[string]int) // identifier -> occurrences, declarations included
	type decl struct{ name, where string }
	var decls []decl
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					mentions[id.Name]++
				}
				return true
			})
			if root != "internal" {
				return nil
			}
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
					pos := fset.Position(fn.Pos())
					decls = append(decls, decl{fn.Name.Name, fmt.Sprintf("%s:%d", pos.Filename, pos.Line)})
				}
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dead:", err)
			os.Exit(2)
		}
	}

	declared := make(map[string]int)
	for _, d := range decls {
		declared[d.name]++
	}
	var dead []string
	for _, d := range decls {
		if mentions[d.name] == declared[d.name] {
			dead = append(dead, fmt.Sprintf("%s %s", d.where, d.name))
		}
	}
	sort.Strings(dead)
	for _, line := range dead {
		fmt.Println(line)
	}
	fmt.Printf("%d unreferenced exported funcs (budget %d)\n", len(dead), *budget)
	if len(dead) > *budget {
		os.Exit(1)
	}
}
