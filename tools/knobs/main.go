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
// A field of a …Config or …Params struct whose every non-test write is one
// and the same constant (a DefaultConfig-style literal counts; a default
// fill does not) is a constant dressed as an option: it needs a line too.
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
	outside  = "written outside tests"
	constant = "written outside tests only as one constant"
	test     = "written only by tests"
	never    = "never written"

	varied = "" // value of a field written outside tests other than as one constant
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
		case c != test && c != never && c != constant:
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
	return fmt.Sprintf("knobs: %d exported internal/ fields, %d without a non-test writer or written as one constant, each listed in %s",
		len(s.class), len(listed), ledger), nil
}

type scanner struct {
	fset   *token.FileSet
	class  map[string]string         // field key -> class
	key    map[string]string         // declaration file:line:col -> field key
	knob   map[string]bool           // field keys of …Config and …Params structs
	writes map[string]string         // declaration file:line:col -> outside or test
	values map[string]string         // declaration file:line:col -> the one constant non-test code writes, or varied
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
	s := &scanner{fset: token.NewFileSet(), class: map[string]string{}, key: map[string]string{}, knob: map[string]bool{},
		writes: map[string]string{}, values: map[string]string{}, tests: map[string]bool{}, fills: map[ast.Stmt]types.Object{}}
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
			if c == outside && s.knob[k] && s.values[pos] != varied {
				c = constant
			}
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
					s.knob[k] = strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Params")
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
			for i, l := range n.Lhs {
				var val ast.Expr
				if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
					val = n.Rhs[i]
				}
				w.target(l, w.s.fills[n], val)
			}
		}
	case *ast.IncDecStmt:
		w.target(n.X, nil, nil)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.target(n.X, nil, nil)
		}
	case *ast.SliceExpr:
		if _, ok := w.info.TypeOf(n.X).Underlying().(*types.Array); ok {
			w.target(n.X, nil, nil) // x.F[:] takes &x.F
		}
	case *ast.CallExpr:
		// x.F.m() with a pointer receiver takes &x.F.
		sel, _ := ast.Unparen(n.Fun).(*ast.SelectorExpr)
		if m := w.info.Selections[sel]; m != nil && m.Kind() == types.MethodVal {
			_, ptrRecv := m.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
			if _, ptrX := w.info.TypeOf(sel.X).Underlying().(*types.Pointer); ptrRecv && !ptrX {
				w.target(sel.X, nil, nil)
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
					f, e = w.info.Uses[kv.Key.(*ast.Ident)], kv.Value
				}
				w.write(f, e)
			}
		}
	}
	return w
}

// target records the fields an assignment of val (nil: not a plain
// assignment) to e writes: every field selected on the way down to its root
// variable, unless the field assigned is fill, the one the enclosing
// `if x.F == 0` tests. Only the field e names directly is given val.
func (w *writes) target(e ast.Expr, fill types.Object, val ast.Expr) {
	var path []types.Object
	for e != nil {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel := w.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				path = append(path, sel.Obj())
			}
			e = x.X
		case *ast.IndexExpr:
			if len(path) == 0 {
				val = nil // x.F[i] = v writes part of F
			}
			e = x.X
		case *ast.StarExpr:
			if len(path) == 0 {
				val = nil // *x.F = v writes through F
			}
			e = x.X
		default:
			e = nil
		}
	}
	if len(path) == 0 || path[0] != fill {
		for i, f := range path {
			if i > 0 {
				val = nil // x.F.G = v writes part of F
			}
			w.write(f, val)
		}
	}
}

// write records a write of val (nil: unknown) to obj.
func (w *writes) write(obj types.Object, val ast.Expr) {
	if obj == nil || w.dflt {
		return
	}
	pos := w.s.fset.Position(obj.Pos()).String()
	if w.s.writes[pos] != outside {
		w.s.writes[pos] = w.class
	}
	if w.class == outside {
		v := w.constant(val)
		if old, ok := w.s.values[pos]; ok && old != v {
			v = varied
		}
		w.s.values[pos] = v
	}
}

// constant renders val if it is a constant expression (nil included), and
// returns varied if it is not.
func (w *writes) constant(val ast.Expr) string {
	if val == nil {
		return varied
	}
	switch tv := w.info.Types[val]; {
	case tv.Value != nil:
		return tv.Value.ExactString()
	case tv.IsNil():
		return "nil"
	}
	return varied
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
