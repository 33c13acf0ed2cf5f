package tree_test

import (
	"fmt"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/tree"
)

// ExampleBuild aggregates 32 workers in 4 racks through their ToR Trio
// routers, two spines and a root (fan-out 2), with a straggler rack: rack 0's
// uplink flaps for the first 3 ms, so the spine above it ages the affected
// blocks out (age_op 2) and multicasts degraded partials. Every rack
// gen-restarts in lockstep, and the second generation converges to the full
// bit-exact sum: the §5 straggler machinery composed across two router
// levels, with no server-to-server messages. The tree is spread over 5 sim
// partitions (spines on partition 0, one per rack subtree); the outcome is
// the same at any partition count.
func ExampleBuild() {
	const (
		racks  = 4
		wpr    = 8
		blocks = 4
	)
	plan := faults.NewPlan(1, faults.Config{Link: faults.LinkConfig{
		Flaps: []faults.Window{{Start: 0, End: 3 * sim.Millisecond}},
	}})
	cfg := tree.Config{
		Spec:        tree.Spec{Racks: racks, WorkersPerRack: wpr, FanOut: 2},
		Blocks:      blocks,
		GradsPerPkt: 32,
		LeafExpiry:  sim.Millisecond,
		Partitions:  5,
		UplinkFaults: func(rack int) *faults.LinkInjector {
			if rack != 0 {
				return nil
			}
			return plan.Link(uint64(rack))
		},
	}
	tr, err := tree.Build(cfg)
	if err != nil {
		panic(err)
	}

	fmt.Printf("topology: %d workers = %d racks x %d, ToRs -> 2 spines -> root (%d levels), %d partitions\n",
		cfg.Workers(), racks, wpr, cfg.Levels(), 5)
	fmt.Println("chaos:    rack 0's uplink flaps for the first 3 ms (every frame dropped)")

	tr.Run(sim.Second)
	st := tr.Stats()

	fmt.Printf("\nspine level aged %d block(s) waiting on rack 0; %d rack gen-restart events followed\n",
		st.Levels[1].BlocksDegraded, st.TotalGenRestarts())
	fmt.Printf("workers accepted %d results (%d degraded), worst send->accept %.2f ms\n",
		st.ResultsDelivered, st.DegradedAccepted, float64(st.MaxRecovery)/float64(sim.Millisecond))

	// Every rack must have converged on the clean full-fan-in sum: the
	// degraded generation-1 partials were superseded by the restart.
	bad := 0
	for blk := 0; blk < blocks; blk++ {
		want := tree.ExpectedHash(tr.Cfg, blk, nil)
		for r := 0; r < racks; r++ {
			sig := tr.RackSigs(r)[blk]
			if sig.Hash != want || sig.AgeOp != 0 {
				bad++
			}
		}
	}
	if bad > 0 || st.ResultsDelivered != uint64(racks*wpr*blocks) || st.TotalGenRestarts() == 0 {
		fmt.Printf("recovery failed (%d bad sums, %d results, %d restarts)\n",
			bad, st.ResultsDelivered, st.TotalGenRestarts())
		return
	}
	fmt.Printf("all %d accepted sums are bit-exact full-fan-in aggregates: the flap cost one generation, not the job\n",
		racks*blocks)
	// Output:
	// topology: 32 workers = 4 racks x 8, ToRs -> 2 spines -> root (3 levels), 5 partitions
	// chaos:    rack 0's uplink flaps for the first 3 ms (every frame dropped)
	//
	// spine level aged 4 block(s) waiting on rack 0; 16 rack gen-restart events followed
	// workers accepted 128 results (0 degraded), worst send->accept 8.02 ms
	// all 16 accepted sums are bit-exact full-fan-in aggregates: the flap cost one generation, not the job
}
