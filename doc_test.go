package triogo

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/trioml/triogo/internal/harness"
)

// goPackages returns every directory under roots that holds a non-test .go
// file, as a slash path relative to the module root.
func goPackages(t *testing.T, roots ...string) map[string]bool {
	t.Helper()
	pkgs := map[string]bool{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() && name == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				pkgs[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pkgs
}

// section returns the lines of doc from the heading that starts with
// heading up to the next heading of the same level.
func section(t *testing.T, doc, heading string) []string {
	t.Helper()
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	level := heading[:strings.IndexByte(heading, ' ')+1]
	var out []string
	in := false
	for _, line := range strings.Split(string(text), "\n") {
		switch {
		case strings.HasPrefix(line, heading):
			in = true
		case in && strings.HasPrefix(line, level):
			return out
		case in:
			out = append(out, line)
		}
	}
	if !in {
		t.Fatalf("%s has no %q section", doc, heading)
	}
	return out
}

// firstPaths collects the backticked path that opens each line matching re.
func firstPaths(lines []string, re *regexp.Regexp) []string {
	var paths []string
	for _, line := range lines {
		if m := re.FindStringSubmatch(line); m != nil {
			paths = append(paths, m[1])
		}
	}
	return paths
}

var (
	tableRow     = regexp.MustCompile("^\\| `([^`]+)` \\|")
	inventoryRow = regexp.MustCompile("^- `([^`]+)`")
)

// TestPackageMapMatchesTree holds README's package map and DESIGN.md §2's
// inventory to the packages on disk: every package under internal/, cmd/ and
// tools/ has a README row, every internal/ package a DESIGN.md §2 bullet, and
// every row and bullet names something that exists.
func TestPackageMapMatchesTree(t *testing.T) {
	pkgs := goPackages(t, "internal", "cmd", "tools")
	exists := func(path string) bool {
		matches, _ := filepath.Glob(strings.TrimSuffix(path, "/"))
		return len(matches) > 0
	}

	rows := map[string]bool{}
	for _, p := range firstPaths(section(t, "README.md", "## Package map"), tableRow) {
		rows[p] = true
		if !exists(p) {
			t.Errorf("README package map lists %s, which does not exist", p)
		}
	}
	bullets := map[string]bool{}
	for _, p := range firstPaths(section(t, "DESIGN.md", "## 2. "), inventoryRow) {
		bullets[p] = true
		if !exists(p) {
			t.Errorf("DESIGN.md §2 lists %s, which does not exist", p)
		}
	}

	var sorted []string
	for p := range pkgs {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	for _, p := range sorted {
		if !rows[p] {
			t.Errorf("%s has no row in README's package map", p)
		}
		if strings.HasPrefix(p, "internal/") && !bullets[p] {
			t.Errorf("%s has no bullet in DESIGN.md §2", p)
		}
	}
}

var (
	ledgerExp   = regexp.MustCompile("`triobench -exp (\\w+)")
	ledgerRule  = regexp.MustCompile(`^\|[-| :]+\|$`)
	gateTest    = regexp.MustCompile("`Test[A-Z0-9_]\\w*`")
	goldensLine = regexp.MustCompile(`(?m)^GOLDENS = ((?:.*\\\n)*.*)$`)
)

// TestExperimentLedgerMatchesRegistry holds DESIGN.md §3, the experiment
// ledger, to the harness registry and to the Makefile's GOLDENS: §3 is one
// table, each registered experiment has exactly one row (found by its
// `triobench -exp <name>`), each row names a registered experiment and cites
// at least one test in its Gate column, and each registered experiment is in
// GOLDENS, so `make goldens-check` diffs it. Whether a cited test exists is
// TestDocsCiteExistingTests' check.
func TestExperimentLedgerMatchesRegistry(t *testing.T) {
	registered := map[string]bool{}
	for _, e := range harness.Experiments() {
		registered[e.Name] = true
	}

	rows := map[string]bool{}
	gate, ended := -1, false
	for _, line := range section(t, "DESIGN.md", "## 3. ") {
		if !strings.HasPrefix(line, "|") {
			ended = gate >= 0
			continue
		}
		if ended {
			t.Errorf("DESIGN.md §3 holds a second table; the ledger is one table: %s", line)
			ended = false
		}
		if ledgerRule.MatchString(line) {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if gate < 0 {
			for i, c := range cells {
				if strings.TrimSpace(c) == "Gate" {
					gate = i
				}
			}
			if gate < 0 {
				t.Fatalf("DESIGN.md §3's table has no Gate column: %s", line)
			}
			continue
		}
		m := ledgerExp.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("DESIGN.md §3 row names no `triobench -exp <name>`: %s", line)
			continue
		}
		name := m[1]
		switch {
		case rows[name]:
			t.Errorf("DESIGN.md §3 has two rows for experiment %s", name)
		case !registered[name]:
			t.Errorf("DESIGN.md §3 has a row for experiment %s, which is not registered", name)
		}
		rows[name] = true
		if len(cells) <= gate || !gateTest.MatchString(cells[gate]) {
			t.Errorf("DESIGN.md §3's row for experiment %s cites no test in its Gate column", name)
		}
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := goldensLine.FindSubmatch(makefile)
	if m == nil {
		t.Fatal("Makefile sets no GOLDENS")
	}
	goldens := map[string]bool{}
	for _, entry := range strings.Fields(strings.ReplaceAll(string(m[1]), "\\\n", " ")) {
		_, exps, _ := strings.Cut(entry, "=")
		for _, name := range strings.Split(exps, ",") {
			goldens[name] = true
			if !registered[name] {
				t.Errorf("Makefile GOLDENS runs experiment %s, which is not registered", name)
			}
		}
	}

	for _, e := range harness.Experiments() {
		if !rows[e.Name] {
			t.Errorf("experiment %s has no row in DESIGN.md §3", e.Name)
		}
		if !goldens[e.Name] {
			t.Errorf("experiment %s is missing from Makefile GOLDENS, so make goldens-check never diffs it", e.Name)
		}
	}
}

var (
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// citedTest matches a test, benchmark, fuzzer or example name inside a
	// code span; a trailing * makes it a prefix ("`TestCluster*`").
	citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*\*?`)
	funcDecl  = regexp.MustCompile(`(?m)^func (\w+)`)
	mainPkg   = regexp.MustCompile(`(?m)^package main$`)
	// goRun captures the directory a `go run ./<dir>` command names.
	goRun = regexp.MustCompile(`go run \./([\w./-]*)`)
	// taskBox marks a doc as a plan of work ("- [ ] add TestX").
	taskBox = regexp.MustCompile(`(?m)^\s*- \[[ xX]\] `)
)

// historyDocs record what was and what is planned, so they may name tests
// that are gone or not written yet; so may any doc with task boxes.
var historyDocs = map[string]bool{"CHANGES.md": true, "ROADMAP.md": true}

// TestDocsCiteExistingTests holds every Markdown file to the tests and
// programs it cites: each backticked Test*/Benchmark*/Fuzz*/Example* name
// must be a func somewhere in the tree, and each `go run ./<dir>` must name a
// directory that holds a main package, so a rename or deletion cannot leave a
// doc pointing at nothing.
func TestDocsCiteExistingTests(t *testing.T) {
	funcs, mains := map[string]bool{}, map[string]bool{}
	var docs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, ".md") && !historyDocs[path]:
			docs = append(docs, path)
		case strings.HasSuffix(path, ".go"):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range funcDecl.FindAllSubmatch(src, -1) {
				funcs[string(m[1])] = true
			}
			if !strings.HasSuffix(path, "_test.go") && mainPkg.Match(src) {
				mains[filepath.ToSlash(filepath.Dir(path))] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string) bool {
		prefix, wildcard := strings.CutSuffix(name, "*")
		if !wildcard {
			return funcs[name]
		}
		for f := range funcs {
			if strings.HasPrefix(f, prefix) {
				return true
			}
		}
		return false
	}
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if taskBox.Match(text) {
			continue
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, name := range citedTest.FindAllString(span, -1) {
					if !exists(name) {
						t.Errorf("%s:%d cites `%s`, which no func in the tree is named", doc, i+1, name)
					}
				}
			}
			for _, m := range goRun.FindAllStringSubmatch(line, -1) {
				if dir := strings.TrimRight(m[1], "./"); !mains[dir] {
					t.Errorf("%s:%d runs `go run ./%s`, but %s holds no main package", doc, i+1, m[1], dir)
				}
			}
		}
	}
}

var (
	// foundCite captures a FOUND line's first two backticked tokens: the
	// path (a :line suffix dropped) and the symbol.
	foundCite   = regexp.MustCompile("^- FOUND:[^`]*`([^`:]+)(?::\\d+)?`[^`]*`([^`]+)`")
	roadmapItem = regexp.MustCompile(`^\d+\. `)
)

// TestFoundLinesHaveOwners holds CHANGES.md's FOUND lines, the repo's defect
// list, to an owner: a later MENDED line, or an item of ROADMAP.md's open
// items (a numbered item's text, its lettered parts included), must name
// both the line's path and its symbol, so no finding is dropped unseen.
func TestFoundLinesHaveOwners(t *testing.T) {
	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	var items []string
	for _, line := range section(t, "ROADMAP.md", "## Open items") {
		switch {
		case roadmapItem.MatchString(line):
			items = append(items, line)
		case strings.HasPrefix(line, "#"):
			items = append(items, "") // a heading ends the item above it
		case len(items) > 0:
			items[len(items)-1] += "\n" + line
		}
	}
	names := func(s, path, sym string) bool {
		return strings.Contains(s, path) && strings.Contains(s, sym)
	}
	lines := strings.Split(string(text), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "- FOUND:") {
			continue
		}
		m := foundCite.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("CHANGES.md:%d: a FOUND line must open with a backticked path and symbol", i+1)
			continue
		}
		path, sym := m[1], m[2]
		owned := slices.ContainsFunc(lines[i+1:], func(l string) bool {
			return strings.HasPrefix(l, "- MENDED") && names(l, path, sym)
		}) || slices.ContainsFunc(items, func(item string) bool { return names(item, path, sym) })
		if !owned {
			t.Errorf("CHANGES.md:%d: FOUND `%s` `%s` has no later MENDED line and no open ROADMAP item that names both", i+1, path, sym)
		}
	}
}
