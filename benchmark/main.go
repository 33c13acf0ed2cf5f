// Command benchmark is the repository's one performance instrument: seven
// closed-loop workloads over the Trio simulator and the live hostagg wire
// path, each verified against a closed form, with end-to-end metrics from
// untraced repetitions and per-layer metrics from a traced run. README.md in
// this directory has the workload rationale and how to read the output.
//
//	go run ./benchmark -seed 1                       # all workloads, one child process each
//	go run ./benchmark -seed 1 -trace 1 -out DIR     # ... plus per-layer metrics and DIR/<workload>.trace.json
//	go run ./benchmark -workload agg-small -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -compare A/results.json B/results.json
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics — the form BENCHMARK.json's
// driver reads. The exit status is non-zero on any wrong sum.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultOut is where traces and result files go unless -out says
// otherwise: inside the checkout and ignored by git.
const defaultOut = ".bench_build/out"

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all, one child process each)")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "how long each workload repeats its rig")
		trace   = flag.Int("trace", 0, "1: also run traced repetitions, report per-layer metrics, write <out>/<workload>.trace.json")
		out     = flag.String("out", defaultOut, "directory for result and trace files")
		compare = flag.Bool("compare", false, "compare two results.json files (base, then change) against BENCHMARK.json's bounds")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *name != "":
		err = runOne(*name, options{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, outDir: *out})
	default:
		err = runSuite(*seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process, prints every metric by name and
// writes <out>/<workload>.json; the driver's JSON object comes last.
func runOne(name string, opt options) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	res, err := runWorkload(w, opt)
	if err != nil {
		return err
	}
	printResult(res)
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opt.outDir, name+".json"), b, 0o644); err != nil {
		return err
	}

	// Untraced runs report the end-to-end metrics, traced runs the per-layer
	// ones, as BENCHMARK.json declares them.
	metrics := res.EndToEnd
	if opt.trace {
		metrics = res.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for k, m := range metrics {
		line.Metrics[k] = value{m.Value, m.Unit}
	}
	b, err = json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

func printResult(res *result) {
	fmt.Printf("== %s  (%s)\n", res.Workload, res.Shape)
	fmt.Printf("   seed %d, %d timed repetitions in %.0f s, %d operations attempted, %d failed\n",
		res.Seed, res.Reps, res.Seconds, res.Attempted, res.Failed)
	section := func(title string, m map[string]measured) {
		if len(m) == 0 {
			return
		}
		if title != "" {
			fmt.Printf("   %s\n", title)
		}
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			x := m[k]
			fmt.Printf("     %-34s %16s %-8s", k, strconv.FormatFloat(x.Value, 'f', -1, 64), x.Unit)
			if x.Samples > 0 {
				fmt.Printf("  n=%d spread=%.1f%%", x.Samples, 100*x.Spread)
			}
			fmt.Println()
		}
	}
	section("end to end (host time, untraced repetitions)", res.EndToEnd)
	if res.VirtDigest != "" {
		fmt.Printf("   simulated (exact; model unvalidated against Trio hardware)  virt_digest %s\n", res.VirtDigest)
		section("", res.Simulated)
	}
	section("per layer (traced run)", res.PerLayer)
	for _, n := range res.Notes {
		fmt.Printf("   ! %s\n", n)
	}
}

// suiteResults is what a whole run writes to <out>/results.json.
type suiteResults struct {
	Host      fingerprint `json:"host"`
	Seed      uint64      `json:"seed"`
	Workloads []*result   `json:"workloads"`
}

// runSuite runs every workload in its own child process, so that each has
// its own peak resident set, and gathers their result files.
func runSuite(seed uint64, seconds float64, trace int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fp := hostFingerprint()
	fmt.Printf("host: %s, %d CPUs, GOMAXPROCS %d, %s, commit %s\n", fp.CPUModel, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Commit)
	fmt.Println("simulated figures come from a model that has not been validated against Trio hardware: no error figure accompanies them")
	suite := suiteResults{Host: fp, Seed: seed}
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		resultFile := filepath.Join(out, w.name+".json")
		_ = os.Remove(resultFile) // usually absent; a stale one must not pass for this run's
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
		b, err := os.ReadFile(resultFile)
		if err != nil {
			continue // the child failed before it had a result; already counted
		}
		res := &result{}
		if err := json.Unmarshal(b, res); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		suite.Workloads = append(suite.Workloads, res)
	}
	// The two tree workloads simulate the same tree: their statistics must
	// agree whatever the partition count.
	digests := map[string]string{}
	for _, r := range suite.Workloads {
		digests[r.Workload] = r.VirtDigest
	}
	if a, b := digests["tree-100k"], digests["tree-100k-p2"]; a != "" && b != "" && a != b {
		failed = append(failed, fmt.Sprintf("tree-100k-p2 (virt_digest %s differs from tree-100k's %s)", b, a))
	}
	b, err := json.MarshalIndent(suite, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, "results.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", path)
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, ", "))
	}
	return nil
}
