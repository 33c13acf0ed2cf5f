package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fixture scans testdata/internal/fix, one field per write rule.
func fixture(t *testing.T) *scanner {
	t.Helper()
	s, err := scan("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFixtureClasses pins the class of every fixture field to
// testdata/classes.golden.
func TestFixtureClasses(t *testing.T) {
	s := fixture(t)
	var got []string
	for k, c := range s.class {
		got = append(got, k+"\t"+c+"\n")
	}
	slices.Sort(got)
	want, err := os.ReadFile("testdata/classes.golden")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "") != string(want) {
		t.Fatalf("classes:\n%s\nwant (testdata/classes.golden):\n%s", strings.Join(got, ""), want)
	}
	if _, err := s.check("testdata/knobs.txt"); err != nil {
		t.Fatal(err)
	}
}

// ledgerWith writes the fixture ledger with drop removed and extra appended.
func ledgerWith(t *testing.T, drop, extra string) string {
	t.Helper()
	text, err := os.ReadFile("testdata/knobs.txt")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		if drop == "" || !strings.HasPrefix(l, drop+"\t") {
			lines = append(lines, l)
		}
	}
	path := filepath.Join(t.TempDir(), "knobs.txt")
	if err := os.WriteFile(path, []byte(strings.Join(append(lines, extra), "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLedgerFailures: an unlisted test-only or one-constant field, a stale
// line and a bad reason each fail, naming the field or line.
func TestLedgerFailures(t *testing.T) {
	s := fixture(t)
	for _, tc := range []struct{ name, drop, extra, want string }{
		{"unlisted", "internal/fix.Config.Tested", "", "unlisted (written only by tests; delete it, make it a constant, or add a line): internal/fix.Config.Tested"},
		{"unlisted constant", "internal/fix.Config.Const", "", "unlisted (written outside tests only as one constant; delete it, make it a constant, or add a line): internal/fix.Config.Const"},
		{"stale varied", "", "internal/fix.Config.Varied\tkept for item 1", "stale line 9 (written outside tests; delete it): internal/fix.Config.Varied"},
		{"stale gone", "", "internal/fix.Config.Gone\tkept for item 1", "stale line 9 (no such field; delete it): internal/fix.Config.Gone"},
		{"stale written", "", "internal/fix.Config.Set\tkept for item 1", "stale line 9 (written outside tests; delete it): internal/fix.Config.Set"},
		{"bad reason", "", "internal/fix.Pair.A\twhy not", "line 9: want"},
		{"unknown test", "", "internal/fix.Pair.B\tobserver: TestMissing", "line 9: no test named TestMissing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.check(ledgerWith(t, tc.drop, tc.extra))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("drop %q, add %q: err = %v, want it to say %q", tc.drop, tc.extra, err, tc.want)
			}
		})
	}
}
