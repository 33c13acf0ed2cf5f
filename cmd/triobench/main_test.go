package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPerExperimentDumps regresses the multi-experiment dump bug: with
// several -exp values, -trace/-metrics used to capture only the final
// experiment's rig. Each experiment must now get its own suffixed dump.
func TestPerExperimentDumps(t *testing.T) {
	dir := t.TempDir()
	prom := filepath.Join(dir, "out.prom")
	trace := filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "fig14,fig15", "-seed", "1", "-quiet",
		"-metrics", prom, "-trace", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, exp := range []string{"fig14", "fig15"} {
		p := filepath.Join(dir, "out_"+exp+".prom")
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("missing per-experiment metrics dump: %v", err)
		}
		if !strings.Contains(string(data), "triogo_sim_events_executed_total") {
			t.Errorf("%s: no engine metrics in dump:\n%s", p, data)
		}
		j := filepath.Join(dir, "out_"+exp+".json")
		raw, err := os.ReadFile(j)
		if err != nil {
			t.Fatalf("missing per-experiment trace: %v", err)
		}
		var events []map[string]any
		if err := json.Unmarshal(raw, &events); err != nil {
			t.Fatalf("%s: invalid trace JSON: %v", j, err)
		}
		if len(events) == 0 {
			t.Errorf("%s: empty trace", j)
		}
	}
	// The unsuffixed paths must not exist in multi-experiment mode.
	for _, p := range []string{prom, trace} {
		if _, err := os.Stat(p); err == nil {
			t.Errorf("unsuffixed dump %s written in multi-experiment mode", p)
		}
	}
}

// TestSingleExperimentDumpKeepsPlainPath: with one experiment, the user's
// exact -metrics/-trace paths are used.
func TestSingleExperimentDumpKeepsPlainPath(t *testing.T) {
	dir := t.TempDir()
	prom := filepath.Join(dir, "one.prom")
	trace := filepath.Join(dir, "one.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "fig15", "-seed", "1", "-quiet",
		"-metrics", prom, "-trace", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, p := range []string{prom, trace} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("single-experiment dump: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestDumpPath(t *testing.T) {
	cases := []struct {
		path, exp string
		multi     bool
		want      string
	}{
		{"out.prom", "fig14", true, "out_fig14.prom"},
		{"out.prom", "fig14", false, "out.prom"},
		{"dir/t.json", "progdse", true, "dir/t_progdse.json"},
		{"noext", "progdse", true, "noext_progdse"},
	}
	for _, c := range cases {
		if got := dumpPath(c.path, c.exp, c.multi); got != c.want {
			t.Errorf("dumpPath(%q,%q,%v) = %q, want %q", c.path, c.exp, c.multi, got, c.want)
		}
	}
}

// TestParallelClampWarning regresses the silent -parallel clamp: with
// -metrics attached, sweeps serialize — and must now say so on stderr and
// export the discarded worker count as triogo_dse_workers_clamped.
func TestParallelClampWarning(t *testing.T) {
	dir := t.TempDir()
	prom := filepath.Join(dir, "out.prom")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "fig15", "-seed", "1", "-parallel", "8",
		"-metrics", prom}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "clamped to 1") {
		t.Errorf("no clamp warning on stderr:\n%s", stderr.String())
	}
	data, err := os.ReadFile(prom)
	if err != nil {
		t.Fatalf("metrics dump: %v", err)
	}
	if !strings.Contains(string(data), "triogo_dse_workers_clamped 7") {
		t.Errorf("clamp gauge missing or wrong in dump:\n%s", data)
	}

	// Without an attached registry/trace there is nothing to clamp: no
	// warning, even at high -parallel.
	stderr.Reset()
	if code := run([]string{"-exp", "fig15", "-seed", "1", "-parallel", "8"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("unclamped run exit %d", code)
	}
	if strings.Contains(stderr.String(), "clamped") {
		t.Errorf("spurious clamp warning:\n%s", stderr.String())
	}
}

// TestPartitionsFlagMatchesSerial: -partitions must not change a single
// output byte (the cross-partition determinism contract, end to end through
// the CLI: flag -> harness.Params -> tree.Config).
func TestPartitionsFlagMatchesSerial(t *testing.T) {
	var one, three, stderr bytes.Buffer
	if code := run([]string{"-exp", "treechaos", "-seed", "1", "-quiet"}, &one, &stderr); code != 0 {
		t.Fatalf("P=1 exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"-exp", "treechaos", "-seed", "1", "-quiet", "-partitions", "3"}, &three, &stderr); code != 0 {
		t.Fatalf("P=3 exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(one.Bytes(), three.Bytes()) {
		t.Fatalf("-partitions changed the output\n--- P=1 ---\n%s\n--- P=3 ---\n%s", one.Bytes(), three.Bytes())
	}
}
