// Command obscheck verifies that OBSERVABILITY.md and the code agree in
// both directions. It instantiates each instrumented subsystem (sim engine,
// PFE + shared memory, hostagg server on a loopback socket, fault plan, dse
// executor, microcode pipeline, a small multi-rack aggregation tree run to
// completion, the netrpc cache and infnet classifier applications), registers
// them all into one obs.Registry,
// and fails if any registered metric name is missing from the document — or if the document
// names a `triogo_*` metric no subsystem registers (a stale doc entry).
// Run by `make verify`.
package main

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"

	"github.com/trioml/triogo/internal/apps/infnet"
	"github.com/trioml/triogo/internal/apps/netrpc"
	"github.com/trioml/triogo/internal/dse"
	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/hostagg"
	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/tree"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// metricRef matches backtick-quoted metric names in the document.
var metricRef = regexp.MustCompile("`(triogo_[a-z0-9_]+)`")

func main() {
	doc := "OBSERVABILITY.md"
	if len(os.Args) > 1 {
		doc = os.Args[1]
	}
	text, err := os.ReadFile(doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: %v (run from the repo root)\n", err)
		os.Exit(1)
	}

	reg := obs.NewRegistry()

	eng := sim.NewEngine()
	trio.New(eng, trio.Config{}).Instrument(reg, nil, nil)

	sim.NewCluster(2).RegisterObs(reg)

	// A configured tenant makes the per-tenant series register, mirroring a
	// multi-tenant production deployment.
	srv, err := hostagg.NewServer(hostagg.ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: 1, MaxOpenBlocks: 64,
		TenantQuotas: map[uint8]hostagg.TenantQuota{1: {MaxOpenBlocks: 8}},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: start hostagg server: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()
	srv.RegisterObs(reg)

	faults.NewPlan(1, faults.Config{}).RegisterObs(reg)

	(&dse.Executor{}).RegisterObs(reg)

	microcode.RegisterObs(reg)

	// Both in-network applications, each installed on its own PFE so the two
	// programs' counter pools coexist.
	rpcSvc, err := netrpc.Install(pfe.New(eng, pfe.Config{}), netrpc.Config{Slots: 64})
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: install netrpc: %v\n", err)
		os.Exit(1)
	}
	rpcSvc.RegisterObs(reg)

	infSvc, err := infnet.Install(pfe.New(eng, pfe.Config{}), infnet.Config{
		Features: []int{22},
		Hidden:   [][]int8{{1}},
		Bias1:    []int32{0},
		Out:      [2][]int8{{1}, {0}},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: install infnet: %v\n", err)
		os.Exit(1)
	}
	infSvc.RegisterObs(reg)

	// A real (tiny) hierarchical tree, run to completion so the per-level
	// series exist and carry non-trivial values when scraped.
	tr, err := tree.Build(tree.Config{
		Spec:   tree.Spec{Racks: 2, WorkersPerRack: 2, FanOut: 2},
		Blocks: 1, GradsPerPkt: 4,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: build tree: %v\n", err)
		os.Exit(1)
	}
	tr.Run(sim.Second)
	tr.RegisterObs(reg)

	names := reg.Names()
	registered := make(map[string]bool, len(names))
	for _, n := range names {
		registered[n] = true
	}

	var missing []string
	for _, n := range names {
		if !strings.Contains(string(text), "`"+n+"`") {
			missing = append(missing, n)
		}
	}

	// Reverse direction: every metric the document names must exist.
	// Histogram series names (_bucket/_sum/_count) count as documented if
	// their base histogram is registered.
	stale := map[string]bool{}
	for _, m := range metricRef.FindAllStringSubmatch(string(text), -1) {
		name := m[1]
		if registered[name] {
			continue
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suf)
		}
		if registered[base] {
			continue
		}
		stale[name] = true
	}

	bad := false
	if len(missing) > 0 {
		bad = true
		fmt.Fprintf(os.Stderr, "obscheck: %d metric(s) not documented in %s:\n", len(missing), doc)
		for _, n := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", n)
		}
	}
	if len(stale) > 0 {
		bad = true
		staleNames := make([]string, 0, len(stale))
		for n := range stale {
			staleNames = append(staleNames, n)
		}
		sort.Strings(staleNames)
		fmt.Fprintf(os.Stderr, "obscheck: %d metric(s) documented in %s but registered by no subsystem (stale docs?):\n", len(stale), doc)
		for _, n := range staleNames {
			fmt.Fprintf(os.Stderr, "  %s\n", n)
		}
	}
	if bad {
		os.Exit(1)
	}
	fmt.Printf("obscheck: all %d exported metrics documented in %s, no stale entries\n", len(names), doc)
}
