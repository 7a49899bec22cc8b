package genie_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// noDeprecated enforces the facade's no-graveyard rule: a declaration
// that earns a "Deprecated:" godoc marker must be deleted (with its
// callers migrated) in the PR that deprecates it, not left to rot.
func noDeprecated(t *testing.T, fset *token.FileSet, context string, doc *ast.CommentGroup) {
	t.Helper()
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, "Deprecated:") {
			t.Errorf("%s: %s carries a Deprecated: marker — delete the declaration and migrate callers instead",
				fset.Position(c.Pos()), context)
		}
	}
}

// TestFacadeHidesInternalTypes is the API guard for the facade redesign:
// no exported declaration of package genie may reference a
// repro/internal/... type where godoc would render it — function and
// method signatures, exported struct fields, and the declared types of
// exported vars and consts. Internal selectors are allowed in exactly
// two godoc-invisible positions: the right-hand side of a type alias
// (the mechanism the facade re-exports through) and the initializer
// values of vars/consts. Everything else must go through the facade's
// own names, so the package reads as self-contained.
func TestFacadeHidesInternalTypes(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}

		// Identifiers bound to repro/internal/... imports in this file.
		internal := map[string]bool{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, "repro/internal/") {
				continue
			}
			alias := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				alias = imp.Name.Name
			}
			internal[alias] = true
		}
		if len(internal) == 0 {
			continue
		}

		leaks := func(context string, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if ok && internal[id.Name] {
					t.Errorf("%s: %s leaks internal type %s.%s",
						fset.Position(sel.Pos()), context, id.Name, sel.Sel.Name)
				}
				return true
			})
		}

		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				noDeprecated(t, fset, "func "+d.Name.Name, d.Doc)
				if !d.Name.IsExported() {
					continue
				}
				ctx := "func " + d.Name.Name
				if d.Recv != nil {
					leaks(ctx+" receiver", d.Recv)
				}
				if d.Type.Params != nil {
					leaks(ctx+" params", d.Type.Params)
				}
				if d.Type.Results != nil {
					leaks(ctx+" results", d.Type.Results)
				}
			case *ast.GenDecl:
				noDeprecated(t, fset, "decl", d.Doc)
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						noDeprecated(t, fset, "type "+s.Name.Name, s.Doc)
						if !s.Name.IsExported() || s.Assign.IsValid() {
							// Unexported, or a type alias — the one
							// sanctioned re-export position.
							continue
						}
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, fname := range fld.Names {
									if fname.IsExported() {
										leaks("type "+s.Name.Name+" field "+fname.Name, fld.Type)
									}
								}
							}
							continue
						}
						leaks("type "+s.Name.Name, s.Type)
					case *ast.ValueSpec:
						if len(s.Names) > 0 {
							noDeprecated(t, fset, "var/const "+s.Names[0].Name, s.Doc)
						}
						exported := false
						for _, vname := range s.Names {
							if vname.IsExported() {
								exported = true
							}
						}
						// Initializer values are allowed; only the
						// declared type would surface in godoc.
						if exported && s.Type != nil {
							leaks("var/const "+s.Names[0].Name, s.Type)
						}
					}
				}
			}
		}
	}
}

// TestFacadeEntriesHaveCallers enforces the facade's one rule: every
// exported function, method, var and const of package genie is
// referenced by a pinned example, and every exported type is named by
// one or appears in a kept entry's signature or field. The pinned
// examples are the examples/*/main.go programs, whose stdout
// repro/examples pins, and the Example functions in example_test.go
// that carry an Output comment. Methods match by receiver, so
// Cluster.Run does not keep Network.Run alive. An entry no pinned
// example reaches is deleted, not kept for hypothetical callers.
func TestFacadeEntriesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()

	// The facade's exported declarations, keyed "Name" or "Recv.Name".
	entries := map[string]token.Pos{} // funcs, methods, vars, consts
	typeDecls := map[string]token.Pos{}
	sigs := map[string][]ast.Expr{}   // func -> its signature and receiver type
	fields := map[string][]ast.Expr{} // struct type -> its exported field types
	facade, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range facade {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				key, parts := d.Name.Name, []ast.Expr{d.Type}
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					recvName := recv.(*ast.Ident).Name
					if !ast.IsExported(recvName) {
						continue // not in the facade's API
					}
					key = recvName + "." + key
					parts = append(parts, recv)
				}
				entries[key], sigs[key] = d.Name.Pos(), parts
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						typeDecls[s.Name.Name] = s.Name.Pos()
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, fname := range fld.Names {
									if fname.IsExported() {
										fields[s.Name.Name] = append(fields[s.Name.Name], fld.Type)
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, vname := range s.Names {
							if vname.IsExported() {
								entries[vname.Name] = vname.Pos()
							}
						}
					}
				}
			}
		}
	}

	// The pinned examples: each examples/*/main.go program whole, and
	// in example_test.go only the Example functions with an Output
	// comment. Each file is type-checked as its own package.
	type pinnedFile struct {
		file  *ast.File
		nodes []ast.Node // the parts whose references count
	}
	var pinned []pinnedFile
	mains, err := filepath.Glob(filepath.Join("..", "examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no example programs found")
	}
	for _, name := range mains {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, pinnedFile{f, []ast.Node{f}})
	}
	exampleFile, err := parser.ParseFile(fset, "example_test.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	examples := pinnedFile{file: exampleFile}
	for _, decl := range exampleFile.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Example") && hasOutput(exampleFile, fd) {
			examples.nodes = append(examples.nodes, fd)
		}
	}
	pinned = append(pinned, examples)

	var files []*ast.File
	for _, p := range pinned {
		files = append(files, p.file)
	}
	imp := exportImporter(t, fset, files)
	called := map[string]bool{}
	for _, p := range pinned {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.file.Name.Name, fset, []*ast.File{p.file}, info); err != nil {
			t.Fatalf("type-check %s: %v", fset.Position(p.file.Pos()).Filename, err)
		}
		for _, node := range p.nodes {
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if key := facadeKey(info.Uses[id]); key != "" {
						called[key] = true
					}
				}
				return true
			})
		}
	}
	if len(called) == 0 {
		t.Fatal("no pinned example references package genie")
	}

	// Types a kept entry exposes, closed over the fields of kept
	// struct types.
	kept := map[string]bool{}
	var queue []ast.Expr
	for key := range called {
		if typeDecls[key] != token.NoPos {
			kept[key] = true
			queue = append(queue, fields[key]...)
		}
		queue = append(queue, sigs[key]...)
	}
	for len(queue) > 0 {
		ast.Inspect(queue[0], func(n ast.Node) bool {
			if _, ok := n.(*ast.SelectorExpr); ok {
				return false // another package's name, not a genie type
			}
			if id, ok := n.(*ast.Ident); ok && typeDecls[id.Name] != token.NoPos && !kept[id.Name] {
				kept[id.Name] = true
				queue = append(queue, fields[id.Name]...)
			}
			return true
		})
		queue = queue[1:]
	}

	var missing []string
	for key, pos := range entries {
		if !called[key] {
			missing = append(missing, fmt.Sprintf("%s: genie.%s is exported but no pinned example references it",
				fset.Position(pos), key))
		}
	}
	for name, pos := range typeDecls {
		if !kept[name] {
			missing = append(missing, fmt.Sprintf("%s: type genie.%s is neither named by a pinned example nor used by a kept entry",
				fset.Position(pos), name))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Error(m + ": delete it, or call it from examples/*/main.go or an Example with an Output comment")
	}
}

// hasOutput reports whether the Example function fd carries an Output
// comment, which makes go test check (pin) what it prints.
func hasOutput(f *ast.File, fd *ast.FuncDecl) bool {
	for _, cg := range f.Comments {
		if cg.Pos() < fd.Body.Lbrace || cg.End() > fd.Body.Rbrace {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, "Output:") || strings.HasPrefix(text, "Unordered output:") {
				return true
			}
		}
	}
	return false
}

// facadeKey names obj the way TestFacadeEntriesHaveCallers keys the
// facade's declarations: "Name", or "Recv.Name" for a method. It
// returns "" for objects outside package genie.
func facadeKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "repro/genie" {
		return ""
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return obj.Name()
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	return rt.(*types.Named).Obj().Name() + "." + obj.Name()
}

// exportImporter returns a type-checking importer for the packages the
// given files import, reading the compiler's export data that
// go list -export reports for them and their dependencies.
func exportImporter(t *testing.T, fset *token.FileSet, files []*ast.File) types.Importer {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go tool not on PATH: %v", err)
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	seen := map[string]bool{}
	for _, f := range files {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if !seen[path] {
				seen[path] = true
				args = append(args, path)
			}
		}
	}
	out, err := exec.Command(goTool, args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok && file != "" {
			exports[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
}
