package harness

import (
	"fmt"
	"strconv"

	"github.com/trioml/triogo/internal/dse"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trioml"
)

func init() {
	register(Experiment{
		Name: "progdse",
		Desc: "Program-level DSE over mcagg variants: static cost model prunes, survivors full-sim -> Pareto frontier",
		Run:  runProgDSE,
	})
}

// ProgDSESpace enumerates the Microcode aggregation program variants:
// gradients per packet x add-loop unroll x slot-pool size. These knobs
// change the program itself, so every point has a static cost the compile
// pipeline can score without simulating.
func ProgDSESpace(quick bool) *dse.Space {
	if quick {
		return dse.NewSpace(
			dse.Axis{Name: "grads_per_pkt", Values: []float64{256, 1024}},
			dse.Axis{Name: "unroll", Values: []float64{1, 4, 16}},
			dse.Axis{Name: "slots", Values: []float64{16, 64}},
		)
	}
	return dse.NewSpace(
		dse.Axis{Name: "grads_per_pkt", Values: []float64{64, 256, 1024}},
		dse.Axis{Name: "unroll", Values: []float64{1, 2, 4, 8, 16}},
		dse.Axis{Name: "slots", Values: []float64{16, 64, 256}},
	)
}

func progDSECfg(params map[string]float64) trioml.MCAggConfig {
	return trioml.MCAggConfig{
		Sources: 4,
		Slots:   int(params["slots"]),
		Grads:   int(params["grads_per_pkt"]),
		Unroll:  int(params["unroll"]),
	}
}

// progDSEObjs are the pruning/frontier objectives: run-time instructions
// per gradient (the PPE budget) against DRAM buffer footprint (the memory
// budget).
var progDSEObjs = []dse.Objective{
	{Metric: "instr_per_grad"},
	{Metric: "dram_kb"},
}

// ProgDSEModel is the first fidelity: the analytic mcagg cost model, no
// simulation. The conformance tests pin it instruction-exact against
// Thread.Stats, which is what licenses pruning on it.
func ProgDSEModel(pt dse.Point) (map[string]float64, error) {
	cost := progDSECfg(pt.Params).Cost()
	if cost.StaticInstructions == 0 {
		return nil, fmt.Errorf("invalid mcagg config %v", pt.Params)
	}
	return map[string]float64{
		"instr_per_grad": cost.InstrPerGrad,
		"dram_kb":        float64(cost.DRAMBytes) / 1024,
		"static_instr":   float64(cost.StaticInstructions),
	}, nil
}

// ProgDSERunner is the second fidelity: assemble the variant, compile it
// through the v2 pipeline, and stream whole aggregation blocks through a
// simulated PFE.
func ProgDSERunner(p Params) dse.Runner {
	blocks := 24
	if p.Quick {
		blocks = 8
	}
	return func(t dse.Trial) (map[string]float64, error) {
		cfg := progDSECfg(t.Params)
		eng := sim.NewEngine()
		pf := pfe.New(eng, pfe.Config{})
		agg, err := trioml.InstallMCAgg(pf, cfg, 1)
		if err != nil {
			return nil, err
		}
		done := 0
		pf.SetOutput(func(port int, frame []byte, at sim.Time) { done++ })
		rng := sim.NewRNG(t.Seed, 0x9d5e)
		for b := 0; b < blocks; b++ {
			for w := 0; w < cfg.Sources; w++ {
				g := make([]int32, cfg.Grads)
				for i := range g {
					g[i] = int32(rng.IntN(2001) - 1000)
				}
				pf.Inject(w%pf.Cfg.NumPorts, uint64(w), packet.BuildTrioML(packet.UDPSpec{
					SrcIP: [4]byte{10, 0, 0, byte(w + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
				}, packet.TrioML{JobID: 1, BlockID: uint32(b), SrcID: uint8(w), GenID: 1}, g))
			}
			eng.Run() // complete each block before the next reuses its slot
		}
		if agg.App.Errors != 0 {
			return nil, fmt.Errorf("microcode errors: %d (%v)", agg.App.Errors, agg.App.LastError)
		}
		if done != blocks {
			return nil, fmt.Errorf("results = %d, want %d", done, blocks)
		}
		grads := blocks * cfg.Sources * cfg.Grads
		us := eng.Now().Microseconds()
		cost := cfg.Cost()
		return map[string]float64{
			"instr_per_grad":   float64(pf.Stats().Instructions) / float64(grads),
			"rate_grad_per_us": float64(grads) / us,
			"dram_kb":          float64(cost.DRAMBytes) / 1024,
			"static_instr":     float64(cost.StaticInstructions),
			"virtual_us":       us,
		}, nil
	}
}

func runProgDSE(p Params) ([]*Table, error) {
	space := ProgDSESpace(p.Quick)
	points := space.Grid()
	pruned, err := dse.PruneByModel(points, ProgDSEModel, 0.05, progDSEObjs...)
	if err != nil {
		return nil, err
	}
	p.logf("progdse: cost model kept %d of %d candidates (%.0f%% pruned)",
		len(pruned.Points), len(points), 100*(1-pruned.Kept()))

	results, err := sweep(p, pruned.Points, ProgDSERunner(p))
	if err != nil {
		return nil, fmt.Errorf("progdse %w", err)
	}
	return ProgDSETables(space, pruned, results), nil
}

// ftoa renders an axis value without trailing zeros (256, 0.5, ...).
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ProgDSETables renders the two-fidelity report: the cost-model pruning
// pass over every program variant, then the full-sim Pareto frontier over
// the survivors.
func ProgDSETables(space *dse.Space, pruned dse.Pruned, results []dse.Result) []*Table {
	kept := make(map[int]bool, len(pruned.Original))
	for _, idx := range pruned.Original {
		kept[idx] = true
	}
	cols := []string{"Point"}
	for _, ax := range space.Axes {
		cols = append(cols, ax.Name)
	}
	cols = append(cols, "Model instr/grad", "DRAM(KB)", "Static", "Kept")
	mt := &Table{
		Title:   "ProgDSE: static cost-model pruning (fidelity 1, no simulation)",
		Columns: cols,
		Notes: []string{
			fmt.Sprintf("%d of %d variants survive the model's Pareto band (5%% slack); only survivors are simulated.",
				len(pruned.Points), len(pruned.Estimates)),
		},
	}
	for i, e := range pruned.Estimates {
		mark := ""
		if kept[i] {
			mark = "keep"
		}
		row := []interface{}{e.Trial}
		for _, ax := range space.Axes {
			row = append(row, ftoa(e.Params[ax.Name]))
		}
		row = append(row,
			fmt.Sprintf("%.3f", e.Metrics["instr_per_grad"]),
			e.Metrics["dram_kb"],
			int(e.Metrics["static_instr"]),
			mark)
		mt.AddRow(row...)
	}

	front := dse.Pareto(results,
		dse.Objective{Metric: "rate_grad_per_us", Maximize: true},
		dse.Objective{Metric: "dram_kb"},
	)
	cols = []string{"Trial"}
	for _, ax := range space.Axes {
		cols = append(cols, ax.Name)
	}
	cols = append(cols, "Measured instr/grad", "Rate(grad/us)", "DRAM(KB)")
	ft := &Table{
		Title:   "ProgDSE: Pareto frontier (fidelity 2, full simulation of survivors)",
		Columns: cols,
		Notes: []string{
			fmt.Sprintf("%d non-dominated of %d simulated survivors (maximize rate, minimize DRAM footprint).",
				len(front), len(results)),
			"Measured instr/grad comes from Thread.Stats through the compiled dispatcher; compare with the model column above.",
		},
	}
	for _, r := range front {
		row := []interface{}{r.Trial}
		for _, ax := range space.Axes {
			row = append(row, ftoa(r.Params[ax.Name]))
		}
		row = append(row,
			fmt.Sprintf("%.3f", r.Metrics["instr_per_grad"]),
			r.Metrics["rate_grad_per_us"],
			r.Metrics["dram_kb"])
		ft.AddRow(row...)
	}
	return []*Table{mt, ft}
}
