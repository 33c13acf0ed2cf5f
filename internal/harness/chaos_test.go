package harness

import "testing"

// TestChaosBounds runs the chaos sweep at seed 1 and relies on the
// experiment's built-in assertions: every fault family at every swept rate
// must stay bit-exact against the fault-free oracle, and every block's
// result must land within the §5 recovery bound (2x timeout + grace). A
// violation comes back as an error.
func TestChaosBounds(t *testing.T) {
	e, ok := Lookup("chaos")
	if !ok {
		t.Fatal("chaos experiment not registered")
	}
	tables, err := e.Run(Params{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("chaos: expected one populated table, got %d", len(tables))
	}
	for _, row := range tables[0].Rows {
		if row[5] != "yes" {
			t.Errorf("chaos: %s@%s%% recovery outside bound: %v", row[0], row[1], row)
		}
		if row[7] != "yes" {
			t.Errorf("chaos: %s@%s%% not bit-exact: %v", row[0], row[1], row)
		}
	}
}
