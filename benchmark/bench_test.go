package main

import (
	"flag"
	"strings"
	"testing"
)

// live also runs the two real-socket workloads. Plain `go test ./...` never
// opens a socket here and asserts no wall-clock figure, so the tier-1 gate
// stays deterministic.
var live = flag.Bool("live", false, "also smoke-run the hostagg workloads over real loopback sockets")

// smoke runs a workload at 1/50 scale for the minimum number of repetitions,
// untraced and traced, and checks only what is deterministic: every
// operation correct, simulated statistics equal across repetitions, and
// every declared metric present.
func smoke(t *testing.T, w *workload) *result {
	t.Helper()
	res, err := runWorkload(w, options{seed: 7, seconds: 0, trace: true, scale: 50, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v, %d of %d operations failed: %v", res.Correct, res.Failed, res.Attempted, res.Notes)
	}
	for _, m := range endToEndNames {
		if res.EndToEnd[m].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", m, res.EndToEnd[m].Value)
		}
	}
	if len(res.PerLayer) != len(layerMetrics) {
		t.Errorf("%d per-layer metrics, want %d", len(res.PerLayer), len(layerMetrics))
	}
	return res
}

func TestSimulatorWorkloads(t *testing.T) {
	digests := map[string]string{}
	for i := range workloads {
		w := &workloads[i]
		if strings.HasPrefix(w.name, "hostagg") {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			res := smoke(t, w)
			if res.VirtDigest == "" {
				t.Error("no virt_digest on a simulator workload")
			}
			digests[w.name] = res.VirtDigest
			// The cluster counters belong to the partitioned tree alone.
			if got := res.PerLayer["sim.cluster.advances"].Value; (got > 0) != (w.name == "tree-100k-p2") {
				t.Errorf("sim.cluster.advances = %v", got)
			}
		})
	}
	if a, b := digests["tree-100k"], digests["tree-100k-p2"]; a != b {
		t.Errorf("tree statistics depend on the partition count: virt_digest %s at P=1, %s at P=2", a, b)
	}
}

func TestLiveWorkloads(t *testing.T) {
	if !*live {
		t.Skip("real sockets: run with -live")
	}
	for i := range workloads {
		if w := &workloads[i]; strings.HasPrefix(w.name, "hostagg") {
			t.Run(w.name, func(t *testing.T) { smoke(t, w) })
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step: the
// same workloads, end-to-end metrics and per-layer metrics, with the same
// units.
func TestBenchmarkJSONMatches(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndNames) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(spec.EndToEnd), len(endToEndNames))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndNames[i] {
			t.Errorf("end-to-end metric %d: declared %q, implemented %q", i, m.Name, endToEndNames[i])
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if lm := layerMetrics[i]; m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer metric %d: declared %+v, implemented %+v", i, m, lm)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22], n=4) == [2.0, 7.0, 16.0]
	if got, want := spread([]float64{22, 1, 16, 2, 11, 4, 7}), (16.0-2.0)/7.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if got, want := spread([]float64{1, 2, 3, 4}), 2.5/2.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, spread, bound float64
		want                 string
	}{
		{0.02, 0.01, 0.10, "unchanged"},
		{0.12, 0.01, 0.10, "REGRESSED"},
		{-0.12, 0.01, 0.10, "improved"},
		{0.12, 0.11, 0.10, "unresolved"},
	} {
		if got := verdict(c.worse, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.worse, c.spread, c.bound, got, c.want)
		}
	}
}
