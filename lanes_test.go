package triogo

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// laneMask is the carry-isolating add's mask, the sign bit of both int32
// lanes of an 8-byte word, however its hex digits are grouped.
var laneMask = regexp.MustCompile(`(?i)0x8000_?0000_?8000_?0000\b`)

// TestOneLaneAdd holds the tree to one int32 lane add, packet.AddLanes: no
// non-test Go outside internal/packet carries its mask, and nothing names the
// decoding add it replaced. switchml, which models Tofino's per-register
// ALUs, and microcode's LMEM keep int32 registers and are exempt.
func TestOneLaneAdd(t *testing.T) {
	exempt := regexp.MustCompile(`^internal/(packet|switchml|microcode)/`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if laneMask.Match(src) && !exempt.MatchString(path) {
			t.Errorf("%s has a second carry-isolating lane add: sum lanes with packet.AddLanes", path)
		}
		if bytes.Contains(src, []byte("AddGradients")) {
			t.Errorf("%s names AddGradients: sum lanes with packet.AddLanes, decode with packet.DecodeLanes", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
