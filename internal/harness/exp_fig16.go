package harness

import (
	"fmt"

	"github.com/trioml/triogo/internal/sim"
)

func init() {
	register(Experiment{
		Name: "fig16",
		Desc: "Fig. 16: impact of window size on aggregation latency and throughput",
		Run:  runFig16,
	})
}

// runFig16 reproduces §6.3's window sweep: four servers stream blocks of 512
// or 1024 gradients with varying window sizes. Larger windows pipeline
// packet arrivals into the router — throughput rises — while per-block
// latency grows because more simultaneous aggregations are in flight.
func runFig16(p Params) ([]*Table, error) {
	windows := []int{1, 4, 16, 64, 256, 1024, 4096}
	baseBlocks := 4000
	if p.Quick {
		windows = []int{1, 16, 256, 4096}
		baseBlocks = 600
	}
	t := &Table{
		Title: "Fig. 16: aggregation latency and throughput vs window size",
		Columns: []string{"Window", "Trio-ML-512 lat(us)", "Trio-ML-512 thr(Gbps)",
			"Trio-ML-1024 lat(us)", "Trio-ML-1024 thr(Gbps)"},
		Notes: []string{
			"Paper shape: latency rises with window; throughput rises and saturates; window 4096 balances both.",
			"Throughput counts aggregate ingress gradient bytes across the four servers.",
		},
	}
	for _, w := range windows {
		row := []interface{}{w}
		for _, grads := range []int{512, 1024} {
			blocks := baseBlocks
			if blocks < 2*w {
				blocks = 2 * w
			}
			cfg := rigConfig{servers: 4, gradsPerPkt: grads, blocks: blocks, window: w,
				trace: p.Trace, obsReg: p.Obs}
			rig := newTrioRig(cfg)
			rig.run()
			var lat sim.Sample
			var end sim.Time
			for i, s := range rig.servers {
				if s.ResultsRecv != uint64(cfg.blocks) {
					return nil, fmt.Errorf("fig16: server %d finished %d/%d (w=%d g=%d)", i, s.ResultsRecv, cfg.blocks, w, grads)
				}
				lat.Add(s.Latency.MeanUs())
				end = max(end, s.LastAccept)
			}
			bits := float64(cfg.servers) * float64(cfg.blocks) * float64(grads) * 32
			thr := bits / end.Seconds() / 1e9
			row = append(row, lat.Mean(), thr)
			p.logf("fig16: w=%d grads=%d lat=%.1fus thr=%.1fGbps", w, grads, lat.Mean(), thr)
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}
