package harness

import (
	"bytes"
	"testing"
)

// TestAppsSeedDeterminism asserts the two application experiments are pure
// functions of their seed: two fresh runs at the same seed must render byte
// for byte identically, including every measured latency digit.
func TestAppsSeedDeterminism(t *testing.T) {
	for _, name := range []string{"netrpc", "infnet"} {
		p := Params{Quick: true, Seed: 2}
		a := renderAll(t, p, name)
		b := renderAll(t, p, name)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: seed-2 reruns diverged\n--- first ---\n%s\n--- second ---\n%s", name, a, b)
		}
		if len(a) == 0 {
			t.Fatalf("%s: rendered nothing", name)
		}
	}
}

// TestNetRPCHardChecks exercises the experiment's built-in acceptance gates
// (instruction-exact cost accounting, >=2x cached speedup, zero corrupted
// replies) and sanity-checks the rendered offload row.
func TestNetRPCHardChecks(t *testing.T) {
	tabs, err := mustLookup(t, "netrpc").Run(Params{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("tables = %d, want 4", len(tabs))
	}
}

// TestInfnetHardChecks runs the inference experiment's built-in gates
// (bit-identity against the Go reference, exact cost conformance, zero
// benign loss in shed mode).
func TestInfnetHardChecks(t *testing.T) {
	tabs, err := mustLookup(t, "infnet").Run(Params{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("tables = %d, want 4", len(tabs))
	}
}

func mustLookup(t *testing.T, name string) Experiment {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	return e
}
