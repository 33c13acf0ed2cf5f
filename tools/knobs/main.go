// Command knobs checks the config-surface ledger, testdata/knobs.txt: every
// exported field of an exported struct type under internal/ that no non-test
// code writes has a line there with a reason, and every line names such a
// field. Run it from the module root (make verify-knobs).
//
// A write is a composite-literal element (keyed or positional), the left side
// of an assignment or ++/--, &x.F, x.F[:] of an array, or a pointer-receiver
// method called on x.F; writing x.F.G or x.F[i] also writes F. Fields are
// resolved by the type checker, not by name. A write inside a func named
// withDefaults, or an assignment to x.F directly in the body of an
// `if x.F == 0` ("", nil, <= 0), only fills a default and does not count.
//
// A line reads "internal/pkg.Type.Field<TAB>reason"; the header of
// testdata/knobs.txt lists the reasons reasonRE allows.
package main

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const (
	outside = "written outside tests"
	test    = "written only by tests"
	never   = "never written"
)

func main() {
	s, err := scan(".")
	msg := ""
	if err == nil {
		msg, err = s.check("testdata/knobs.txt")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(msg)
}

var reasonRE = regexp.MustCompile(`^(kept for item [0-9]+(\([a-z]\))?|(observer|test sweep): (Test\w+))$`)

// check compares the fields without a non-test writer with the ledger.
func (s *scanner) check(ledger string) (string, error) {
	text, err := os.ReadFile(ledger)
	if err != nil {
		return "", err
	}
	listed := map[string]bool{}
	var bad []string
	fail := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }
	for n, line := range strings.Split(string(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, "\t")
		listed[key] = true
		m := reasonRE.FindStringSubmatch(reason)
		switch c := cmp.Or(s.class[key], "no such field"); {
		case m == nil:
			fail("line %d: want \"internal/pkg.Type.Field<TAB>reason\", a reason tools/knobs allows: %s", n+1, line)
		case m[4] != "" && !s.tests[m[4]]:
			fail("line %d: no test named %s", n+1, m[4])
		case c != test && c != never:
			fail("stale line %d (%s; delete it): %s", n+1, c, key)
		}
	}
	for key, c := range s.class {
		if c != outside && !listed[key] {
			fail("unlisted (%s; delete it, make it a constant, or add a line): %s", c, key)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return "", fmt.Errorf("knobs: %s disagrees with the code:\n  %s", ledger, strings.Join(bad, "\n  "))
	}
	return fmt.Sprintf("knobs: %d exported internal/ fields, %d without a non-test writer, each listed in %s",
		len(s.class), len(listed), ledger), nil
}

type scanner struct {
	fset   *token.FileSet
	class  map[string]string         // field key -> class
	key    map[string]string         // declaration file:line:col -> field key
	writes map[string]string         // declaration file:line:col -> outside or test
	tests  map[string]bool           // Test funcs
	fills  map[ast.Stmt]types.Object // statement in an if x.F == 0 body -> F
}

// scan type-checks every package under root, tests included, and classifies
// each exported field of an exported struct type declared under
// root/internal, keyed "internal/pkg.Type.Field".
func scan(root string) (*scanner, error) {
	// The source importer names files by absolute path; so must we.
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	s := &scanner{fset: token.NewFileSet(), class: map[string]string{}, key: map[string]string{},
		writes: map[string]string{}, tests: map[string]bool{}, fills: map[ast.Stmt]types.Object{}}
	// Imports are type-checked from source by a second checker, so a field
	// is identified by where it is declared, which both checkers agree on.
	imp := importer.ForCompiler(s.fset, "source", nil)
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		bp, _ := build.ImportDir(dir, 0) // no Go files: nothing to load
		pkg, err := s.load(imp, dir, bp.GoFiles, bp.TestGoFiles)
		if rel, _ := filepath.Rel(root, dir); err == nil && strings.HasPrefix(rel, "internal"+string(filepath.Separator)) {
			s.declare(filepath.ToSlash(rel), pkg)
		}
		if err == nil {
			_, err = s.load(imp, dir, nil, bp.XTestGoFiles)
		}
		return err
	})
	for pos, c := range s.writes {
		if k, ok := s.key[pos]; ok {
			s.class[k] = c
		}
	}
	return s, err
}

// load parses and type-checks one package and records its writes. Type
// errors (an external test cannot see in-package test files) are the build's.
func (s *scanner) load(imp types.Importer, dir string, src, tests []string) (*types.Package, error) {
	var files []*ast.File
	for _, name := range append(src[:len(src):len(src)], tests...) {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: imp, Error: func(error) {}}
	pkg, _ := conf.Check(dir, s.fset, files, info)
	for i, f := range files {
		w := &writes{s: s, info: info, class: outside}
		if i >= len(src) {
			w.class = test
		}
		ast.Walk(w, f)
	}
	return pkg, nil
}

// declare registers the exported fields of pkg's exported struct types.
func (s *scanner) declare(rel string, pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() || strings.HasSuffix(s.fset.Position(tn.Pos()).Filename, "_test.go") {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for f := range st.Fields() {
				if f.Exported() {
					k := rel + "." + name + "." + f.Name()
					s.key[s.fset.Position(f.Pos()).String()] = k
					s.class[k] = never
				}
			}
		}
	}
}

// writes walks one file.
type writes struct {
	s     *scanner
	info  *types.Info
	class string
	dflt  bool // inside a withDefaults func
}

func (w *writes) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Name.Name == "withDefaults" {
			return &writes{s: w.s, info: w.info, class: w.class, dflt: true}
		} else if w.class == test && strings.HasPrefix(n.Name.Name, "Test") {
			w.s.tests[n.Name.Name] = true
		}
	case *ast.IfStmt:
		for _, st := range n.Body.List {
			w.s.fills[st] = w.zeroTest(n.Cond)
		}
	case *ast.AssignStmt:
		if n.Tok != token.DEFINE {
			for _, l := range n.Lhs {
				w.target(l, w.s.fills[n])
			}
		}
	case *ast.IncDecStmt:
		w.target(n.X, nil)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.target(n.X, nil)
		}
	case *ast.SliceExpr:
		if _, ok := w.info.TypeOf(n.X).Underlying().(*types.Array); ok {
			w.target(n.X, nil) // x.F[:] takes &x.F
		}
	case *ast.CallExpr:
		// x.F.m() with a pointer receiver takes &x.F.
		sel, _ := ast.Unparen(n.Fun).(*ast.SelectorExpr)
		if m := w.info.Selections[sel]; m != nil && m.Kind() == types.MethodVal {
			_, ptrRecv := m.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
			if _, ptrX := w.info.TypeOf(sel.X).Underlying().(*types.Pointer); ptrRecv && !ptrX {
				w.target(sel.X, nil)
			}
		}
	case *ast.CompositeLit:
		t := w.info.TypeOf(n)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem() // an elided &T{...}
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i, e := range n.Elts {
				f := types.Object(st.Field(i))
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					f = w.info.Uses[kv.Key.(*ast.Ident)]
				}
				w.write(f)
			}
		}
	}
	return w
}

// target records the fields an assignment to e writes: every field selected
// on the way down to its root variable, unless the field assigned is fill,
// the one the enclosing `if x.F == 0` tests.
func (w *writes) target(e ast.Expr, fill types.Object) {
	var path []types.Object
	for e != nil {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel := w.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				path = append(path, sel.Obj())
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			e = nil
		}
	}
	if len(path) == 0 || path[0] != fill {
		for _, f := range path {
			w.write(f)
		}
	}
}

func (w *writes) write(obj types.Object) {
	if obj == nil || w.dflt {
		return
	}
	if pos := w.s.fset.Position(obj.Pos()).String(); w.s.writes[pos] != outside {
		w.s.writes[pos] = w.class
	}
}

// zeroTest returns the field an `x.F == 0` style condition tests, if any.
func (w *writes) zeroTest(cond ast.Expr) types.Object {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.EQL && b.Op != token.LEQ {
		return nil
	}
	sel, _ := ast.Unparen(b.X).(*ast.SelectorExpr)
	tv := w.info.Types[b.Y]
	zero := tv.IsNil() || tv.Value != nil && (tv.Value.ExactString() == "0" || tv.Value.ExactString() == `""`)
	if f := w.info.Selections[sel]; f != nil && zero {
		return f.Obj()
	}
	return nil
}
