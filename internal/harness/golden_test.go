package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

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
	checkGolden(t, "golden_rigs_seed1.txt", "fig16", "microcode", "advanced", "ablation", "progdse")
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

// TestLiveChaosGolden pins the multi-tenant isolation table. livechaos runs
// the real hostagg block table on sim.Engine — time and the wire are
// arguments — so its cells are exact integers like every other golden here,
// at any -parallel and GOMAXPROCS. The capture is also the isolation check: a
// scenario whose victim loses a round, a bit-exact sum or a block to the
// aggressor, or whose damage lands on the wrong counters, returns an error.
func TestLiveChaosGolden(t *testing.T) {
	checkGolden(t, "golden_livechaos_seed1.txt", "livechaos")
}
