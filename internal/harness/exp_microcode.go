package harness

import (
	"fmt"

	"github.com/trioml/triogo/internal/trio/smem"
	"github.com/trioml/triogo/internal/trioml"
)

func init() {
	register(Experiment{
		Name: "microcode",
		Desc: "§6.3 Microcode program analysis: instructions per packet/gradient, RMW-engine capacity",
		Run:  runMicrocode,
	})
}

// runMicrocode reproduces the §6.3 program analysis: the aggregation program
// is ≈60 static instructions (the default mcagg program's assembled length
// is printed); the per-packet loop runs ≈1.2 instructions per gradient; 12
// RMW engines at two cycles per add give 6x10^9 adds per second per PFE at
// 1 GHz.
func runMicrocode(p Params) ([]*Table, error) {
	blocks := 500
	if p.Quick {
		blocks = 100
	}
	cfg := rigConfig{servers: 4, gradsPerPkt: 1024, blocks: blocks, window: 64,
		trace: p.Trace, obsReg: p.Obs}
	rig := newTrioRig(cfg)
	rig.run()

	st := rig.router.PFE(0).Stats()
	aggSt := rig.agg.Stats()
	if aggSt.Packets == 0 {
		return nil, fmt.Errorf("microcode: no packets aggregated")
	}
	instrPerPkt := float64(st.Instructions) / float64(aggSt.Packets)
	instrPerGrad := float64(st.Instructions) / float64(aggSt.GradsAggregated)

	prog, err := trioml.MCAggProgram(trioml.MCAggConfig{Sources: cfg.servers, Slots: 1}, 0, 0)
	if err != nil {
		return nil, err
	}
	memCfg := rig.router.PFE(0).Mem.Config()
	addsPerSec := float64(memCfg.NumRMWEngines) / (smem.AddCycles * smem.CycleTime.Seconds())

	t := &Table{
		Title:   "§6.3 Microcode program analysis",
		Columns: []string{"Metric", "Measured", "Paper"},
		Notes: []string{
			"Per-gradient instruction cost is dominated by the 64-byte tail-chunk loop of Fig. 10.",
		},
	}
	t.AddRow("Static program size (instructions)", prog.Len(), "~60")
	t.AddRow("Run-time instructions per packet", fmt.Sprintf("%.0f", instrPerPkt), "-")
	t.AddRow("Run-time instructions per gradient", fmt.Sprintf("%.2f", instrPerGrad), "~1.2")
	t.AddRow("RMW engines per PFE", memCfg.NumRMWEngines, "12")
	t.AddRow("Cycles per engine add", smem.AddCycles, "2")
	t.AddRow("Peak adds/s per PFE", fmt.Sprintf("%.1e", addsPerSec), "6e9")
	t.AddRow("Gradients aggregated", aggSt.GradsAggregated, "-")
	return []*Table{t}, nil
}
