package triogo

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
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
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// citedTest matches a test, benchmark or fuzzer name inside a code span;
	// a trailing * makes it a prefix ("`TestCluster*`").
	citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	funcDecl  = regexp.MustCompile(`(?m)^func (\w+)`)
	// taskBox marks a doc as a plan of work ("- [ ] add TestX").
	taskBox = regexp.MustCompile(`(?m)^\s*- \[[ xX]\] `)
)

// historyDocs record what was and what is planned, so they may name tests
// that are gone or not written yet; so may any doc with task boxes.
var historyDocs = map[string]bool{"CHANGES.md": true, "ROADMAP.md": true}

// TestDocsCiteExistingTests holds every Markdown file to the tests it cites:
// each backticked Test*/Benchmark*/Fuzz* name must be a func somewhere in the
// tree, so a rename or deletion cannot leave a doc pointing at nothing.
func TestDocsCiteExistingTests(t *testing.T) {
	funcs := map[string]bool{}
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
		}
	}
}
