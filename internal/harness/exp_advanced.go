package harness

import (
	"fmt"

	"github.com/trioml/triogo/internal/mltrain"
	"github.com/trioml/triogo/internal/sim"
)

func init() {
	register(Experiment{
		Name: "advanced",
		Desc: "§5 extension: advanced straggler mitigation — demoting a permanently dead worker",
		Run:  runAdvanced,
	})
}

// runAdvanced evaluates the §5 "Advanced straggler mitigation" paragraph,
// which the paper describes but does not measure: with one worker
// permanently out of service, plain mitigation pays the block-aging timeout
// every iteration, while the slow analysis thread demotes the dead source
// from the job record, after which iterations complete at the no-straggler
// pace.
func runAdvanced(p Params) ([]*Table, error) {
	scale, iters := trainScale(p)
	if iters < 12 {
		iters = 12
	}
	model := mltrain.Models()[0] // ResNet50

	run := func(threshold uint64) ([]mltrain.IterationResult, bool, error) {
		c, err := mltrain.NewCluster(mltrain.ClusterConfig{
			Model: model, System: mltrain.SystemTrioML,
			Scale: scale, Seed: p.seed(),
			DeadWorker:         5,
			AdvancedMitigation: threshold,
		})
		if err != nil {
			return nil, false, err
		}
		res, err := c.Run(iters)
		if err != nil {
			return nil, false, err
		}
		return res, threshold > 0 && c.TrioAgg.Demoted(1, 5), nil
	}

	p.logf("advanced: plain mitigation ...")
	plain, _, err := run(0)
	if err != nil {
		return nil, err
	}
	p.logf("advanced: with demotion ...")
	demoted, didDemote, err := run(20)
	if err != nil {
		return nil, err
	}

	late := func(res []mltrain.IterationResult) sim.Time {
		n := len(res)
		return (res[n-1].End - res[n-5].End) / 4
	}
	frac := func(res []mltrain.IterationResult) float64 {
		return mltrain.AvgGradFraction(res, len(res)-4)
	}
	ideal, _ := mltrain.NewCluster(mltrain.ClusterConfig{Model: model, System: mltrain.SystemIdeal, Scale: scale})
	idealRes, _ := ideal.Run(iters)

	t := &Table{
		Title: "§5 extension: permanent straggler (worker 5 dead), ResNet50",
		Columns: []string{"Configuration", "Late-iteration time (ms)", "Late grad fraction",
			"Source demoted"},
		Notes: []string{
			"Plain mitigation pays the ~2x-timeout aging penalty on every iteration; demotion removes it.",
			"After demotion the five live workers form the complete source set, so their blocks are not degraded.",
		},
	}
	t.AddRow("Ideal (all 6 workers alive)", late(idealRes).Milliseconds(), "1.000", "-")
	t.AddRow("Plain straggler mitigation", late(plain).Milliseconds(),
		fmt.Sprintf("%.3f", frac(plain)), "no")
	demotedStr := "no"
	if didDemote {
		demotedStr = "yes"
	}
	t.AddRow("With advanced mitigation", late(demoted).Milliseconds(),
		fmt.Sprintf("%.3f", frac(demoted)), demotedStr)
	return []*Table{t}, nil
}
