package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the program reads back: the
// metric declarations with their regression bounds.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchmarkSpec{}
	if err := json.Unmarshal(b, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// verdict classifies one (metric, workload) pair. worse is the change's
// deterioration as a share of the base value (negative: it got better);
// spread is the wider of the two sides' repetition-to-repetition spreads.
func verdict(worse, spread, bound float64) string {
	switch {
	case spread > bound:
		return "unresolved" // the sides' own noise is wider than the bound
	case worse > bound:
		return "REGRESSED"
	case worse < -bound:
		return "improved"
	}
	return "unchanged"
}

// runCompare applies BENCHMARK.json's bounds to two suite results, base
// first, one row per workload. It fails on any regression, on a higher share
// of failed operations, and on simulated statistics that differ — a change
// that is only about host speed must leave those bit-identical.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two results.json files: base, then change")
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("bounds come from BENCHMARK.json in the current directory: %w", err)
	}
	var sides [2]suiteResults
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &sides[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if sides[0].Host != sides[1].Host {
		fmt.Printf("note: fingerprints differ (%+v vs %+v); host-time numbers only compare on one host and build\n", sides[0].Host, sides[1].Host)
	}
	change := map[string]*result{}
	for _, r := range sides[1].Workloads {
		change[r.Workload] = r
	}

	bad := 0
	for _, base := range sides[0].Workloads {
		chg := change[base.Workload]
		if chg == nil {
			fmt.Printf("%-14s missing from %s\n", base.Workload, args[1])
			bad++
			continue
		}
		var cells []string
		for _, m := range spec.EndToEnd {
			b, c := base.EndToEnd[m.Name], chg.EndToEnd[m.Name]
			if b.Value == 0 {
				continue
			}
			worse := (c.Value - b.Value) / b.Value
			if m.Better == "higher" {
				worse = -worse
			}
			v := verdict(worse, max(b.Spread, c.Spread), m.Bound)
			if v == "REGRESSED" {
				bad++
			}
			cells = append(cells, fmt.Sprintf("%s %s (%+.1f%%, bound %.0f%%)", m.Name, v, 100*(c.Value-b.Value)/b.Value, 100*m.Bound))
		}
		sim := "simulated identical"
		if base.VirtDigest != chg.VirtDigest {
			sim = fmt.Sprintf("SIMULATED STATISTICS DIFFER (virt_digest %s -> %s)", base.VirtDigest, chg.VirtDigest)
			bad++
		} else if base.VirtDigest == "" {
			sim = "nothing simulated"
		}
		fb, fc := ratio(float64(base.Failed), float64(base.Attempted)), ratio(float64(chg.Failed), float64(chg.Attempted))
		fail := fmt.Sprintf("failed %d/%d -> %d/%d", base.Failed, base.Attempted, chg.Failed, chg.Attempted)
		if fc > fb {
			fail += " ROSE"
			bad++
		}
		fmt.Printf("%-14s %s; %s\n               %s\n", base.Workload, sim, fail, strings.Join(cells, "\n               "))
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}
