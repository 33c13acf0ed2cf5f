package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runMcasm(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// filterMC is the §3.2 filter, whose one copy lives with the assembler.
var filterMC = filepath.Join("..", "..", "internal", "microcode", "testdata", "filter.mc")

// filter has no loop; aggloop is the Fig. 10 add loop, whose listing must
// carry the loop-kernel annotation (head, end, lanes, pass length).
func TestDumpCompiledGolden(t *testing.T) {
	for name, src := range map[string]string{"filter": filterMC, "aggloop": filepath.Join("testdata", "aggloop.mc")} {
		out, errOut, code := runMcasm(t, "-dump-compiled", src)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", name, code, errOut)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", name+".dump.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if out != string(golden) {
			t.Fatalf("%s: -dump-compiled output diverges from golden:\n--- got ---\n%s--- want ---\n%s", name, out, golden)
		}
	}
}

func TestVerifyOnly(t *testing.T) {
	out, errOut, code := runMcasm(t, "-verify-only", filterMC)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "verify: ok") {
		t.Fatalf("output: %s", out)
	}
}

func TestVerifyOnlyRejectsBadProgram(t *testing.T) {
	dir := t.TempDir()
	// Recursive call chain: assembles fine, but the static verifier must
	// reject it before execution.
	src := "program rec;\n\nloop:\nbegin\n    r0 = r0 + 1;\n    call loop;\nend\n\ndone:\nbegin\n    exit(drop);\nend\n"
	path := filepath.Join(dir, "rec.mc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := runMcasm(t, "-verify-only", path)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "verify") {
		t.Fatalf("stderr: %s", errOut)
	}
}

func TestRunFilterForward(t *testing.T) {
	out, errOut, code := runMcasm(t, filterMC)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"verdict: forward", "instructions executed: 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
