package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// live also runs the real-socket livechaos golden. Plain `go test ./...`
// never does: its scenarios compare ~100 µs wall-clock rounds against an SLO,
// which a loaded 2-CPU box fails about every other run.
var live = flag.Bool("live", false, "also run the livechaos golden over real loopback sockets")

// checkGolden pins the rendered tables of the named experiments, run in
// order at seed 1 in quick mode, to a capture under testdata/: every digit —
// latencies and injected-fault counts included — must reproduce bit for bit.
// The event core, the fault streams and the rig wiring (trio.Router.Cable's
// link order) all consume sequence numbers and RNG draws in a fixed order,
// and these files are what holds a refactor to it. Regenerate one after a
// deliberate semantic change with
//
//	go run ./cmd/triobench -exp <experiments> -seed 1 -quiet > internal/harness/testdata/<file>
//
// and `make goldens-check` runs the same comparison through the CLI.
func checkGolden(t *testing.T, file string, experiments ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	got := renderAll(t, Params{Quick: true, Seed: 1}, experiments...)
	if !bytes.Equal(got, want) {
		t.Fatalf("%v output diverged from %s\n--- want ---\n%s\n--- got ---\n%s", experiments, file, want, got)
	}
}

func TestGoldenFig14Fig15Determinism(t *testing.T) {
	checkGolden(t, "golden_fig14_fig15_seed1.txt", "fig14", "fig15")
}

// TestGoldenRigs covers the remaining experiments that run on trioRig or
// wire a PFE by hand.
func TestGoldenRigs(t *testing.T) {
	checkGolden(t, "golden_rigs_seed1.txt", "fig16", "microcode", "advanced", "ablation", "dse", "progdse")
}

func TestGoldenChaosDeterminism(t *testing.T) {
	checkGolden(t, "golden_chaos_seed1.txt", "chaos")
}

func TestGoldenAppsDeterminism(t *testing.T) {
	checkGolden(t, "golden_netrpc_seed1.txt", "netrpc")
	checkGolden(t, "golden_infnet_seed1.txt", "infnet")
}

func TestGoldenTreeChaos(t *testing.T) {
	checkGolden(t, "golden_tree_seed1.txt", "treechaos")
}

// TestLiveChaosGolden drives the real UDP server under adversarial tenants.
// Unlike the simulated goldens, every cell of its table is categorical
// (yes/NO/-): wall-clock measurements over real sockets cannot be pinned, so
// they go to the -v log. The all-"yes" capture is also the isolation check —
// a scenario that breaks the victim's goodput SLO, bit-exact sums, shed
// attribution or the ladder excursion renders "NO" or returns an error.
func TestLiveChaosGolden(t *testing.T) {
	if !*live {
		t.Skip("real sockets and wall-clock SLOs: run with -live (make verify-hostagg-live)")
	}
	checkGolden(t, "golden_livechaos_seed1.txt", "livechaos")
}
