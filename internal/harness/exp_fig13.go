package harness

import (
	"fmt"

	"github.com/trioml/triogo/internal/mltrain"
)

func init() {
	register(Experiment{
		Name: "fig13",
		Desc: "Fig. 13: training iteration time vs straggling probability",
		Run:  runFig13,
	})
}

func runFig13(p Params) ([]*Table, error) {
	probs := []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16}
	if p.Quick {
		probs = []float64{0, 0.08, 0.16}
	}
	var tables []*Table
	for _, m := range mltrain.Models() {
		t := &Table{
			Title:   fmt.Sprintf("Fig. 13: %s training iteration time vs straggling probability", m.Name),
			Columns: []string{"p(%)", "Ideal(ms)", "Trio-ML(ms)", "SwitchML(ms)", "SwitchML/Trio-ML"},
			Notes: []string{
				"Paper speedups at p=16%: 1.72x (ResNet50), 1.75x (DenseNet161), 1.8x (VGG11).",
				"Trio-ML stays close to Ideal: partial aggregation caps the straggler penalty at ~2x the 10 ms timeout.",
			},
		}
		idealIter, _, err := measureIter(p, m, mltrain.SystemIdeal, 0)
		if err != nil {
			return nil, err
		}
		for _, prob := range probs {
			p.logf("fig13: %s p=%.0f%% ...", m.Name, prob*100)
			trio, _, err := measureIter(p, m, mltrain.SystemTrioML, prob)
			if err != nil {
				return nil, err
			}
			swml, _, err := measureIter(p, m, mltrain.SystemSwitchML, prob)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%.0f", prob*100),
				idealIter.Milliseconds(), trio.Milliseconds(), swml.Milliseconds(),
				fmt.Sprintf("%.2fx", float64(swml)/float64(trio)))
		}
		tables = append(tables, t)
	}
	return tables, nil
}
