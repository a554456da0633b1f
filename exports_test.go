package codesignvm

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportsAllowList names the exported declarations the module keeps
// without a non-test reference, one per line: the declaration's key
// (as TestExportsReferenced prints it), then the reason it stays.
const exportsAllowList = "testdata/exports_allow.txt"

// modulePath is go.mod's module line: the import path of this directory.
const modulePath = "codesignvm"

// TestExportsReferenced is the dead-export gate: every exported func,
// type and method declared in a non-test file of a library package
// must be named by some non-test file of the module (cmd/, examples/
// and the benchmark's bench/*.go count as callers), or appear on the
// allow-list with a reason. An allow-list entry whose declaration is
// gone, or is referenced again, fails the gate too, so the list cannot
// outlive what it excuses.
//
// The scan is by name, from the syntax alone (go/ast, no type
// checking): pkg.Name selectors and same-package identifiers reference
// funcs and types; any .Name selector references every method called
// Name. It therefore errs toward "referenced": a method shares the
// fate of every method and field of its name. A declaration's own
// name, its receivers and its recursive self-references do not count.
// Consts and vars are out of scope: the iota enums name ISA encodings
// that are read through tables, not by name.
func TestExportsReferenced(t *testing.T) {
	decls, refs := scanExports(t, ".")
	allow := readExportsAllowList(t)

	var dead []string
	for key, d := range decls {
		if refs.has(d) {
			continue
		}
		if _, ok := allow[key]; !ok {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s: exported, but no non-test file references it (delete it, or allow-list it in %s with a reason)", key, exportsAllowList)
	}
	for key := range allow {
		d, ok := decls[key]
		switch {
		case !ok:
			t.Errorf("%s: allow-listed in %s but no longer declared", key, exportsAllowList)
		case refs.has(d):
			t.Errorf("%s: allow-listed in %s but referenced again; remove its entry", key, exportsAllowList)
		}
	}
}

// exportDecl is one exported func, type or method of a library package.
type exportDecl struct {
	pkg  string // import path
	name string // func or type name, or the method name
	recv string // receiver base type of a method; "" otherwise
}

// key renders the declaration as the allow-list spells it:
// codesignvm/internal/x86.Asm.MovMI, codesignvm.Figure2.
func (d exportDecl) key() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name
	}
	return d.pkg + "." + d.name
}

// exportRefs holds the names non-test files use.
type exportRefs struct {
	qualified map[string]bool // "importpath.Name": a package-level func or type
	selected  map[string]bool // "Name" after any dot: a method (or field)
}

func (r exportRefs) has(d exportDecl) bool {
	if d.recv != "" {
		return r.selected[d.name]
	}
	return r.qualified[d.pkg+"."+d.name]
}

// scanExports parses every non-test Go file under root — the module
// and the benchmark's bench/ module beside it — and returns the exported
// declarations of the library packages with the references to them.
// Main packages (cmd/, examples/, bench/) are callers only: nothing can
// import what they declare.
func scanExports(t *testing.T, root string) (map[string]exportDecl, exportRefs) {
	t.Helper()
	decls := map[string]exportDecl{}
	refs := exportRefs{qualified: map[string]bool{}, selected: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := de.Name()
		if de.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := modulePath
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		if f.Name.Name != "main" {
			collectExports(f, pkg, decls)
		}
		collectRefs(f, pkg, refs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, refs
}

// recvType returns the base type name of a method receiver.
func recvType(fd *ast.FuncDecl) string {
	e := fd.Recv.List[0].Type
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func collectExports(f *ast.File, pkg string, decls map[string]exportDecl) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			e := exportDecl{pkg: pkg, name: d.Name.Name}
			if d.Recv != nil {
				// A method of an unexported type is reachable only
				// through an interface or an exported embedding.
				if e.recv = recvType(d); !ast.IsExported(e.recv) {
					continue
				}
			}
			decls[e.key()] = e
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, s := range d.Specs {
				if ts := s.(*ast.TypeSpec); ts.Name.IsExported() {
					e := exportDecl{pkg: pkg, name: ts.Name.Name}
					decls[e.key()] = e
				}
			}
		}
	}
}

// collectRefs records the names f uses, outside the declarations that
// introduce them and their self-references.
func collectRefs(f *ast.File, pkg string, refs exportRefs) {
	imports := map[string]string{} // local name → import path
	for _, is := range f.Imports {
		path, err := strconv.Unquote(is.Path.Value)
		if err != nil {
			continue
		}
		local := path[strings.LastIndex(path, "/")+1:]
		if is.Name != nil {
			local = is.Name.Name
		}
		imports[local] = path
	}
	// own is the name a declaration may use without referencing it: a
	// recursive func or a self-referential type names it bare (recv is
	// ""), a method calls itself on its receiver recv.
	var walk func(n ast.Node, own, recv string)
	walk = func(n ast.Node, own, recv string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if path, ok := imports[id.Name]; ok {
						refs.qualified[path+"."+x.Sel.Name] = true
						return false
					}
					if id.Name == recv && x.Sel.Name == own {
						return false
					}
				}
				refs.selected[x.Sel.Name] = true
				walk(x.X, own, recv)
				return false
			case *ast.Ident:
				if recv != "" || x.Name != own {
					refs.qualified[pkg+"."+x.Name] = true
				}
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				walk(d.Type, d.Name.Name, "")
				if d.Body != nil {
					walk(d.Body, d.Name.Name, "")
				}
				continue
			}
			// The receiver's type is not a use of it; its name is the
			// one a recursive method calls itself through.
			recv := "_"
			if names := d.Recv.List[0].Names; len(names) > 0 {
				recv = names[0].Name
			}
			walk(d.Type, "", "")
			if d.Body != nil {
				walk(d.Body, d.Name.Name, recv)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.TypeParams != nil {
						walk(s.TypeParams, s.Name.Name, "")
					}
					walk(s.Type, s.Name.Name, "")
				case *ast.ValueSpec:
					if s.Type != nil {
						walk(s.Type, "", "")
					}
					for _, v := range s.Values {
						walk(v, "", "")
					}
				}
			}
		}
	}
}

// readExportsAllowList parses the allow-list: a key and a reason per
// line; blank lines and lines starting with # are skipped.
func readExportsAllowList(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(exportsAllowList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, _ := strings.Cut(text, " ")
		reason = strings.TrimSpace(reason)
		switch {
		case reason == "":
			t.Errorf("%s:%d: %s has no reason", exportsAllowList, line, key)
		case allow[key] != "":
			t.Errorf("%s:%d: %s listed twice", exportsAllowList, line, key)
		}
		allow[key] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}
