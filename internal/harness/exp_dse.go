package harness

import (
	"fmt"
	"strconv"

	"github.com/trioml/triogo/internal/dse"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/smem"
)

func init() {
	register(Experiment{
		Name: "dse",
		Desc: "Design-space exploration: parallel sweep over PFE/memory/protocol knobs -> Pareto frontier + per-axis sensitivity",
		Run:  runDSE,
	})
}

// dseSpace returns the design space behind `triobench -exp dse`: the
// architectural and protocol knobs whose single operating points the paper's
// Figs. 12-16 report. Quick mode sweeps a 16-point grid; full mode widens
// every axis and adds memory latency and link loss.
func dseSpace(quick bool) *dse.Space {
	if quick {
		return dse.NewSpace(
			dse.Axis{Name: "grads_per_pkt", Values: []float64{256, 1024}},
			dse.Axis{Name: "window", Values: []float64{1, 8}},
			dse.Axis{Name: "num_ppes", Values: []float64{32, 96}},
			dse.Axis{Name: "rmw_engines", Values: []float64{1, 12}},
		)
	}
	return dse.NewSpace(
		dse.Axis{Name: "grads_per_pkt", Values: []float64{64, 256, 1024}},
		dse.Axis{Name: "window", Values: []float64{1, 8, 64}},
		dse.Axis{Name: "num_ppes", Values: []float64{16, 96}},
		dse.Axis{Name: "rmw_engines", Values: []float64{1, 12}},
		dse.Axis{Name: "sram_latency_ns", Values: []float64{70, 280}},
		dse.Axis{Name: "loss_pct", Values: []float64{0, 1}},
	)
}

// dseParam reads an axis value with a default, so the quick space, which
// leaves out SRAM latency and link loss, runs those at the rig's defaults.
func dseParam(t dse.Trial, name string, def float64) float64 {
	if v, ok := t.Params[name]; ok {
		return v
	}
	return def
}

// dseRunner returns the trial runner of `triobench -exp dse`. Each trial
// builds one fully isolated §6.3 rig — four servers streaming aggregation
// blocks through a single PFE — configured from the trial's axis values, with
// loss streams seeded by the trial seed, and reports throughput, latency,
// completion, on-chip memory occupancy, and scheduler cost.
func dseRunner(p Params) dse.Runner {
	blocks := 200
	if p.Quick {
		blocks = 60
	}
	return func(t dse.Trial) (map[string]float64, error) {
		cfg := rigConfig{
			servers:       4,
			gradsPerPkt:   int(dseParam(t, "grads_per_pkt", 256)),
			blocks:        blocks,
			window:        int(dseParam(t, "window", 1)),
			timeout:       5 * sim.Millisecond,
			numPPEs:       int(dseParam(t, "num_ppes", 0)),
			rmwEngines:    int(dseParam(t, "rmw_engines", 0)),
			sramLatencyNs: int(dseParam(t, "sram_latency_ns", 0)),
		}
		if loss := dseParam(t, "loss_pct", 0) / 100; loss > 0 {
			// Loss on the worker→router direction only: dropped
			// contributions are repaired by §5 aging (degraded results),
			// so lossy sweeps still complete every block.
			cfg.links = func(i int) (up, down netsim.LinkConfig) {
				up, down = netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig()
				up.LossProb, up.LossSeed = loss, t.Seed+uint64(i)
				return up, down
			}
		}
		rig := newTrioRig(cfg)
		rig.run()
		var lat sim.Sample
		var done uint64
		for _, w := range rig.servers {
			done += w.ResultsRecv
			if w.ResultsRecv > 0 {
				lat.Add(w.Latency.MeanUs())
			}
		}
		mean, rate := 0.0, 0.0
		if lat.N() > 0 {
			mean = lat.Mean()
		}
		if mean > 0 {
			rate = float64(cfg.gradsPerPkt) / mean
		}
		mem := rig.router.PFE(0).Mem
		return map[string]float64{
			"completed_frac":   float64(done) / float64(cfg.servers*cfg.blocks),
			"latency_us":       mean,
			"rate_grad_per_us": rate,
			"smem_sram_bytes":  float64(mem.AllocBytes(smem.TierSRAM)),
			"smem_ops":         float64(mem.TotalOps()),
			"sim_events":       float64(rig.metrics().Executed),
			"virtual_ms":       rig.eng.Now().Milliseconds(),
		}, nil
	}
}

func runDSE(p Params) ([]*Table, error) {
	space := dseSpace(p.Quick)
	points := space.Grid()
	ex := &dse.Executor{Workers: p.workers()}
	ex.RegisterObs(p.Obs)
	results, err := ex.Run(points, p.seed(), dseRunner(p))
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != "" {
			return nil, fmt.Errorf("dse trial %d: %s", r.Trial, r.Err)
		}
	}
	p.logf("dse: swept %d trials on %d workers", len(points), p.workers())
	return dseTables(space, results), nil
}

// ftoa renders an axis value without trailing zeros (256, 0.5, ...).
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// dseTables reduces a finished sweep to the report `triobench -exp dse`
// prints: the Pareto frontier of aggregation rate vs on-chip
// SRAM occupancy, and the per-axis marginal sensitivity of rate and latency.
// Axis columns come from the space, so quick and full sweeps share it.
func dseTables(space *dse.Space, results []dse.Result) []*Table {
	front := dse.Pareto(results,
		dse.Objective{Metric: "rate_grad_per_us", Maximize: true},
		dse.Objective{Metric: "smem_sram_bytes", Maximize: false},
	)
	cols := []string{"Trial"}
	for _, ax := range space.Axes {
		cols = append(cols, ax.Name)
	}
	cols = append(cols, "Rate(grad/us)", "SRAM(KB)", "Latency(us)")
	pt := &Table{
		Title:   "DSE: Pareto frontier (maximize aggregation rate, minimize SRAM occupancy)",
		Columns: cols,
		Notes: []string{
			fmt.Sprintf("%d non-dominated of %d trials; every other configuration is beaten on both objectives at once.", len(front), len(results)),
		},
	}
	for _, r := range front {
		row := []interface{}{r.Trial}
		for _, ax := range space.Axes {
			row = append(row, ftoa(r.Params[ax.Name]))
		}
		row = append(row,
			r.Metrics["rate_grad_per_us"],
			r.Metrics["smem_sram_bytes"]/1024,
			r.Metrics["latency_us"])
		pt.AddRow(row...)
	}

	st := &Table{
		Title:   "DSE: per-axis sensitivity (marginal means, all other axes varying)",
		Columns: []string{"Axis", "Value", "Trials", "Rate(grad/us)", "Latency(us)"},
		Notes:   []string{"Each row averages every trial that used that axis value - a main-effects view of which knobs matter."},
	}
	rateS := dse.SensitivityTable(results, space, "rate_grad_per_us")
	latS := dse.SensitivityTable(results, space, "latency_us")
	for i, s := range rateS {
		st.AddRow(s.Axis, ftoa(s.Value), s.N, s.Mean, latS[i].Mean)
	}
	return []*Table{pt, st}
}
