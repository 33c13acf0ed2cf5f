package harness

import (
	"bytes"
	"testing"
)

// TestTreeCrossPartitionDeterminism is the hierarchical tentpole's contract:
// a small tree sweep renders byte-identical tables at any partition count.
// AutoPlace deals the rack subtrees (ToR + its worker bank) over the engines
// with the spines on the last one, so this exercises inter-router links
// crossing partitions in both directions — contributions up, result
// multicasts down — under the conservative-lookahead barrier.
func TestTreeCrossPartitionDeterminism(t *testing.T) {
	points := []treePoint{{1, 6, 2}, {4, 16, 4}, {16, 64, 8}}
	render := func(parts int) []byte {
		var buf bytes.Buffer
		tables, err := runTreePoints(Params{Quick: true, Seed: 1, Partitions: parts}, points)
		if err != nil {
			t.Fatalf("P=%d: %v", parts, err)
		}
		for _, tb := range tables {
			tb.Render(&buf)
		}
		return buf.Bytes()
	}
	base := render(1)
	for _, parts := range []int{2, 5} {
		if got := render(parts); !bytes.Equal(base, got) {
			t.Fatalf("P=%d output differs from P=1\n--- P=1 ---\n%s\n--- P=%d ---\n%s",
				parts, base, parts, got)
		}
	}
}

// TestTreeChaosCrossPartitionDeterminism covers the hard schedule: spine
// timer aging, gen-restart multicasts, and a flapping uplink all crossing
// partition boundaries. Recovery timings and restart counts must not move
// by a nanosecond when racks are spread over engines.
func TestTreeChaosCrossPartitionDeterminism(t *testing.T) {
	base := renderAll(t, Params{Quick: true, Seed: 1, Partitions: 1}, "treechaos")
	if len(base) == 0 {
		t.Fatal("P=1 treechaos rendered nothing")
	}
	for _, parts := range []int{2, 5} {
		got := renderAll(t, Params{Quick: true, Seed: 1, Partitions: parts}, "treechaos")
		if !bytes.Equal(base, got) {
			t.Fatalf("P=%d output differs from P=1\n--- P=1 ---\n%s\n--- P=%d ---\n%s",
				parts, base, parts, got)
		}
	}
}
