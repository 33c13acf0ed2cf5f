package harness

import (
	"strconv"
	"strings"
	"testing"

	"github.com/trioml/triogo/internal/trioml"
)

// TestRegistryComplete checks each registered experiment is runnable and
// listed in name order; which experiments exist is DESIGN.md §3's to say
// (TestExperimentLedgerMatchesRegistry at the module root).
func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	for i, e := range exps {
		if e.Desc == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.Name)
		}
		if i > 0 && exps[i-1].Name >= e.Name {
			t.Fatalf("experiments out of order: %s before %s", exps[i-1].Name, e.Name)
		}
	}
	if _, ok := Lookup("fig14"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("phantom experiment")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"A", "BB"}, Notes: []string{"n"}}
	tb.AddRow("x", 1)
	tb.AddRow("long-cell", 3.14159)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== T ==", "A", "BB", "long-cell", "3.14", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTable1RowsMatchPaper(t *testing.T) {
	e, _ := Lookup("table1")
	tabs, err := e.Run(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 3 {
		t.Fatalf("rows = %d", len(tabs[0].Rows))
	}
	if tabs[0].Rows[0][0] != "ResNet50" || tabs[0].Rows[0][1] != "98" {
		t.Fatalf("row = %v", tabs[0].Rows[0])
	}
}

func TestFig14MitigationWithinTwoTimeouts(t *testing.T) {
	e, _ := Lookup("fig14")
	tabs, err := e.Run(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	if len(tab.Rows) < 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		timeout := mustF(t, row[0])
		max := mustF(t, row[3])
		if max > 2*timeout+1 {
			t.Fatalf("timeout %v ms: max mitigation %v ms exceeds 2x bound", timeout, max)
		}
		if max < timeout {
			t.Fatalf("timeout %v ms: mitigation %v ms faster than one timeout — aging can't beat the scan period", timeout, max)
		}
		if row[4] != "yes" {
			t.Fatalf("bound flag = %q", row[4])
		}
	}
}

func TestFig15LatencyMonotoneRatePlateaus(t *testing.T) {
	e, _ := Lookup("fig15")
	tabs, err := e.Run(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	prevLat := 0.0
	for i := range tab.Rows {
		lat := cell(t, tab, i, 1)
		if lat <= prevLat {
			t.Fatalf("latency not increasing at row %d", i)
		}
		prevLat = lat
	}
	// Sub-linear latency: 16x gradients cost well under 16x latency.
	first, last := cell(t, tab, 0, 1), cell(t, tab, len(tab.Rows)-1, 1)
	if last/first >= 16 {
		t.Fatalf("latency scaled linearly (%.1fx for 16x gradients)", last/first)
	}
	// Rate plateaus: 512 -> 1024 gains less than 15%.
	r512, r1024 := cell(t, tab, 3, 2), cell(t, tab, 4, 2)
	if r1024 < r512 {
		t.Fatalf("rate decreased: %v -> %v", r512, r1024)
	}
	if r1024/r512 > 1.15 {
		t.Fatalf("rate did not plateau between 512 and 1024: %v -> %v", r512, r1024)
	}
}

func TestFig16ThroughputSaturatesLatencyGrows(t *testing.T) {
	e, _ := Lookup("fig16")
	tabs, err := e.Run(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	n := len(tab.Rows)
	for col := 1; col <= 3; col += 2 { // latency columns
		if cell(t, tab, n-1, col) <= cell(t, tab, 0, col) {
			t.Fatalf("latency (col %d) did not grow with window", col)
		}
	}
	for col := 2; col <= 4; col += 2 { // throughput columns
		first, last := cell(t, tab, 0, col), cell(t, tab, n-1, col)
		if last < 10*first {
			t.Fatalf("throughput (col %d) did not scale with window: %v -> %v", col, first, last)
		}
		// Saturation: the last doubling of window gains < 2x throughput.
		prev := cell(t, tab, n-2, col)
		if last/prev > 2 {
			t.Fatalf("throughput still scaling linearly at max window: %v -> %v", prev, last)
		}
	}
}

func TestMicrocodeAnalysisMatchesPaper(t *testing.T) {
	e, _ := Lookup("microcode")
	tabs, err := e.Run(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, r := range tabs[0].Rows {
		rows[r[0]] = r[1]
	}
	// The row is the default mcagg program's assembled length (the paper's
	// "≈60"), not a constant.
	prog, err := trioml.MCAggProgram(trioml.MCAggConfig{Sources: 2, Slots: 1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rows["Static program size (instructions)"], strconv.Itoa(prog.Len()); got != want {
		t.Fatalf("static size = %s, want the program's %s", got, want)
	}
	ipg := mustF(t, rows["Run-time instructions per gradient"])
	if ipg < 1.0 || ipg > 1.6 {
		t.Fatalf("instructions per gradient = %v, want ≈1.2", ipg)
	}
	if rows["Peak adds/s per PFE"] != "6.0e+09" {
		t.Fatalf("adds/s = %s", rows["Peak adds/s per PFE"])
	}
}

func TestFig13TrioBeatsSwitchMLAndTracksIdeal(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	e, _ := Lookup("fig13")
	tabs, err := e.Run(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		last := len(tab.Rows) - 1
		ideal := cell(t, tab, last, 1)
		trio := cell(t, tab, last, 2)
		swml := cell(t, tab, last, 3)
		if swml <= trio {
			t.Fatalf("%s: SwitchML %v <= Trio %v at p=16%%", tab.Title, swml, trio)
		}
		if trio > 1.5*ideal {
			t.Fatalf("%s: Trio %v strays from ideal %v", tab.Title, trio, ideal)
		}
		// At p=0 the systems are comparable (within 25%).
		t0, s0 := cell(t, tab, 0, 2), cell(t, tab, 0, 3)
		if t0 > 1.25*s0 || s0 > 1.25*t0 {
			t.Fatalf("%s: p=0 baseline mismatch trio=%v switchml=%v", tab.Title, t0, s0)
		}
	}
}

func TestFig12SpeedupPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep")
	}
	e, _ := Lookup("fig12")
	tabs, err := e.Run(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	summary := tabs[0]
	if len(summary.Rows) != 6 {
		t.Fatalf("summary rows = %d", len(summary.Rows))
	}
	for i := 0; i < len(summary.Rows); i += 2 {
		speed := cell(t, summary, i, 6)
		if speed <= 1.05 {
			t.Fatalf("%s: Trio-ML speedup %.2f not > 1.05", summary.Rows[i][0], speed)
		}
		trioMin := cell(t, summary, i, 5)
		swMin := cell(t, summary, i+1, 5)
		if trioMin >= swMin {
			t.Fatalf("%s: trio %v min not faster than switchml %v min", summary.Rows[i][0], trioMin, swMin)
		}
	}
	// Accuracy curves are monotone in time and Trio-ML dominates.
	for _, curve := range tabs[1:] {
		prevT, prevS := 0.0, 0.0
		for i := range curve.Rows {
			tr, sw := cell(t, curve, i, 1), cell(t, curve, i, 2)
			if tr < prevT || sw < prevS {
				t.Fatalf("%s: accuracy not monotone", curve.Title)
			}
			if tr+1e-9 < sw {
				t.Fatalf("%s: SwitchML accuracy above Trio-ML at row %d", curve.Title, i)
			}
			prevT, prevS = tr, sw
		}
	}
}

func TestAblationShapes(t *testing.T) {
	e, _ := Lookup("ablation")
	tabs, err := e.Run(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	byTitle := map[string]*Table{}
	for _, tb := range tabs {
		byTitle[strings.Fields(tb.Title)[1]] = tb
	}
	// RMW banking: 12 engines drain ~12x faster than 1.
	bank := tabs[0]
	if sp := mustF(t, strings.TrimSuffix(bank.Rows[2][2], "x")); sp < 8 || sp > 14 {
		t.Fatalf("12-engine speedup = %v, want ≈12x", sp)
	}
	// Timer fan-out: 100 threads sweep ~100x faster per thread than 1.
	fan := tabs[1]
	if r := mustF(t, fan.Rows[0][1]) / mustF(t, fan.Rows[2][1]); r < 50 {
		t.Fatalf("fan-out ratio = %v, want ≈100x", r)
	}
	// REF flags beat timestamp reads by an order of magnitude and need no
	// memory ops.
	ref := tabs[2]
	if ref.Rows[0][2] != "0" {
		t.Fatalf("REF sweep used memory ops: %v", ref.Rows[0][2])
	}
	if r := mustF(t, ref.Rows[1][1]) / mustF(t, ref.Rows[0][1]); r < 5 {
		t.Fatalf("timestamp/REF sweep ratio = %v", r)
	}
	// Hierarchy reduces top-level fan-in from 6 streams to 2.
	hier := tabs[4]
	if hier.Rows[0][1] != "6" || hier.Rows[1][1] != "2" {
		t.Fatalf("fan-in rows = %v / %v", hier.Rows[0], hier.Rows[1])
	}
}

func TestAdvancedDemotionRemovesPenalty(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs")
	}
	e, _ := Lookup("advanced")
	tabs, err := e.Run(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	ideal := cell(t, tab, 0, 1)
	plain := cell(t, tab, 1, 1)
	demoted := cell(t, tab, 2, 1)
	if plain <= ideal {
		t.Fatalf("plain %v should pay a penalty over ideal %v", plain, ideal)
	}
	if demoted >= plain-5 {
		t.Fatalf("demotion saved too little: %v -> %v", plain, demoted)
	}
	if tab.Rows[2][3] != "yes" {
		t.Fatal("source not demoted")
	}
}

func mustF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
