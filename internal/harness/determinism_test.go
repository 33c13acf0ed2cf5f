package harness

import (
	"bytes"
	"testing"
)

// renderAll runs the named experiments under p and renders every table into
// one byte stream.
func renderAll(t *testing.T, p Params, names ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range names {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		tables, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tb := range tables {
			tb.Render(&buf)
		}
	}
	return buf.Bytes()
}

// TestSecondSeedDeterminism guards the determinism story beyond the pinned
// seed-1 golden: a second seed must also be a pure function of its inputs.
// Two fresh runs of fig14+fig15 at seed 2 must render byte-identically.
func TestSecondSeedDeterminism(t *testing.T) {
	p := Params{Quick: true, Seed: 2}
	a := renderAll(t, p, "fig14", "fig15")
	b := renderAll(t, p, "fig14", "fig15")
	if !bytes.Equal(a, b) {
		t.Fatalf("seed-2 reruns diverged\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("seed-2 run rendered nothing")
	}
}

// TestSweepsParallelMatchSerial asserts that the experiments running on the
// dse executor — fig14 and fig15 through sweepAxis, progdse through sweep —
// render the same bytes at any worker-pool size: trial seeds are a pure
// function of (sweep seed, index) and rigs are fully isolated, so -parallel
// only changes wall time.
func TestSweepsParallelMatchSerial(t *testing.T) {
	exps := []string{"fig14", "fig15", "progdse"}
	serial := renderAll(t, Params{Quick: true, Seed: 1, Parallel: 1}, exps...)
	par := renderAll(t, Params{Quick: true, Seed: 1, Parallel: 8}, exps...)
	if !bytes.Equal(serial, par) {
		t.Fatalf("%v output depends on parallelism\n--- serial ---\n%s\n--- parallel ---\n%s", exps, serial, par)
	}
	if len(serial) == 0 {
		t.Fatalf("%v rendered nothing", exps)
	}
}
