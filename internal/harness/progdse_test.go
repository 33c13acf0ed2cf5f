package harness

import (
	"strings"
	"testing"

	"github.com/trioml/triogo/internal/dse"
)

// The acceptance bar for program-level DSE: the cost runs prune
// at least half the candidate variants before any simulation runs, in both
// quick and full spaces.
func TestProgDSEModelPrunesMajority(t *testing.T) {
	for _, quick := range []bool{true, false} {
		space := ProgDSESpace(quick)
		points := space.Grid()
		pruned, err := dse.PruneByModel(points, ProgDSEModel, 0.05, progDSEObjs...)
		if err != nil {
			t.Fatal(err)
		}
		if len(pruned.Points) == 0 {
			t.Fatalf("quick=%v: pruned everything", quick)
		}
		if kept := pruned.Kept(); kept > 0.5 {
			t.Fatalf("quick=%v: model kept %.0f%% of %d candidates, need ≤50%%",
				quick, 100*kept, len(points))
		}
		// Deeper unroll strictly lowers instr/grad at equal memory, so no
		// survivor should use unroll 1 while 16 is in the space.
		for _, p := range pruned.Points {
			if p.Params["unroll"] == 1 {
				t.Fatalf("quick=%v: unroll=1 survived the model prune: %+v", quick, p.Params)
			}
		}
	}
}

func TestProgDSEEndToEndQuick(t *testing.T) {
	e, ok := Lookup("progdse")
	if !ok {
		t.Fatal("progdse not registered")
	}
	tabs, err := e.Run(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	model, front := tabs[0], tabs[1]
	if len(model.Rows) != ProgDSESpace(true).Size() {
		t.Fatalf("model table rows = %d, want %d", len(model.Rows), ProgDSESpace(true).Size())
	}
	keptRows := 0
	for _, row := range model.Rows {
		if row[len(row)-1] == "keep" {
			keptRows++
		}
	}
	if keptRows == 0 || keptRows > len(model.Rows)/2 {
		t.Fatalf("kept rows = %d of %d", keptRows, len(model.Rows))
	}
	if len(front.Rows) == 0 || len(front.Rows) > keptRows {
		t.Fatalf("frontier rows = %d (survivors %d)", len(front.Rows), keptRows)
	}
	if !strings.Contains(front.Notes[0], "non-dominated") {
		t.Fatalf("notes = %v", front.Notes)
	}
}
