package harness

import (
	"fmt"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/tree"
)

func init() {
	register(Experiment{
		Name: "tree",
		Desc: "Multi-rack hierarchical aggregation: (workers, racks, fan-out) sweep to 10^5-10^6 simulated workers",
		Run:  runTree,
	})
	register(Experiment{
		Name: "treechaos",
		Desc: "Hierarchical straggler chaos: worker vs rack stragglers, uplink flap and rack failure, composed recovery bounds",
		Run:  runTreeChaos,
	})
}

// treePoint is one swept tree shape.
type treePoint struct {
	racks, wpr, fan int
}

// treeQuickPoints climbs from the paper's single-router six-worker testbed
// (§6.1) to a 10^5-worker datacenter tree; full mode continues to 10^6.
var treeQuickPoints = []treePoint{
	{1, 6, 2},      // the paper's testbed: one ToR, six workers
	{4, 16, 4},     // 64 workers, ToRs + root
	{16, 64, 8},    // 1k workers, three levels
	{64, 128, 16},  // 8k workers
	{500, 200, 32}, // 100k workers: 500 ToRs, 16 spines, 1 root
}

var treeFullPoints = append(treeQuickPoints[:len(treeQuickPoints):len(treeQuickPoints)],
	treePoint{1250, 200, 64}, // 250k workers
	treePoint{5000, 200, 64}, // 10^6 workers: 5000 ToRs, 79 + 2 spines, 1 root
)

// treeBaseCfg is the shared operating point of both tree experiments: small
// blocks (the sweep measures aggregation shape, not payload volume) and the
// composed expiry ladder starting at 1 ms per ToR.
func treeBaseCfg(p Params, pt treePoint) tree.Config {
	return tree.Config{
		Spec:        tree.Spec{Racks: pt.racks, WorkersPerRack: pt.wpr, FanOut: pt.fan},
		GradsPerPkt: 32,
		Blocks:      2,
		LeafExpiry:  sim.Millisecond,
		Partitions:  p.Partitions,
		Seed:        p.seed(),
	}
}

// registerTreeObs exports the tree's series and, when the tree is placed on
// more than one partition, the cluster's per-partition ones.
func registerTreeObs(r *obs.Registry, tr *tree.Tree) {
	tr.RegisterObs(r)
	if tr.Cluster != nil {
		tr.Cluster.RegisterObs(r)
	}
}

func runTree(p Params) ([]*Table, error) {
	points := treeQuickPoints
	if !p.Quick {
		points = treeFullPoints
	}
	return runTreePoints(p, points)
}

// runTreePoints runs the scale sweep over the given shapes. Split out so
// the determinism tests can pin a smaller point set.
func runTreePoints(p Params, points []treePoint) ([]*Table, error) {
	t := &Table{
		Title:   "Hierarchical trees: multi-rack aggregation scale sweep",
		Columns: []string{"Workers", "Racks", "W/Rack", "FanOut", "Levels", "Grads(k)", "Rate(grad/us)", "MeanLat(us)", "P99Lat(us)", "Done(ms)"},
		Notes: []string{
			"ToR Trio routers aggregate their rack, spine routers aggregate ToRs (fan-out children per spine) up to one root.",
			"2 blocks x 32 gradients per worker; block expiry 1 ms at the ToRs, x4 per level above (composed straggler ladder).",
			"Rate: leaf-level gradients aggregated per virtual microsecond; Lat: worker send -> accepted result, worker 0 of each rack.",
			"Every accepted result is verified bit-exact against the closed-form tree-wide sum before a row is reported.",
		},
	}
	for _, pt := range points {
		cfg := treeBaseCfg(p, pt)
		tr, err := tree.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("tree %dx%d: %w", pt.racks, pt.wpr, err)
		}
		registerTreeObs(p.Obs, tr)
		tr.Run(sim.Second)
		st := tr.Stats()
		workers := pt.racks * pt.wpr
		if want := uint64(workers * cfg.Blocks); st.ResultsDelivered != want {
			return nil, fmt.Errorf("tree %dx%d: %d/%d results delivered", pt.racks, pt.wpr, st.ResultsDelivered, want)
		}
		for blk := 0; blk < cfg.Blocks; blk++ {
			if got, want := tr.RackSigs(0)[blk].Hash, tree.ExpectedHash(tr.Cfg, blk, nil); got != want {
				return nil, fmt.Errorf("tree %dx%d block %d: sum hash %#x, want %#x", pt.racks, pt.wpr, blk, got, want)
			}
		}
		doneUS := float64(st.FinishedAt) / float64(sim.Microsecond)
		rate := float64(st.Levels[0].GradsAggregated) / doneUS
		t.AddRow(workers, pt.racks, pt.wpr, pt.fan, len(st.Levels),
			float64(st.Levels[0].GradsAggregated)/1e3, rate,
			st.Latency.Mean(), st.Latency.Percentile(99), ms(st.FinishedAt))
		p.logf("tree: %d workers (%d racks x %d, fan %d): rate=%.2f grad/us done=%.3fms",
			workers, pt.racks, pt.wpr, pt.fan, rate, ms(st.FinishedAt))
	}
	return []*Table{t}, nil
}

// treeScenario is one chaos case on the fixed 4-rack/8-worker/fan-2 tree
// (ToRs -> 2 spines -> root).
type treeScenario struct {
	name   string
	mutate func(cfg *tree.Config)
	live   func(gw int) bool // workers contributing to the expected final sum
	// expected outcome
	ageOp      uint8 // AgeOp on the accepted results
	restartsL1 uint64
	bound      func(cfg tree.Config) sim.Time
}

// treeChaosScenarios: a straggler worker is absorbed at its ToR (age_op 1,
// no restart); a flapping rack uplink triggers a spine-level gen-restart
// that recovers the full sum; a dead rack exhausts the restart budget and
// the survivors settle on a consistent partial.
func treeChaosScenarios(blocks uint64) []treeScenario {
	grace := 2 * sim.Millisecond
	return []treeScenario{
		{
			name:   "worker-straggler",
			mutate: func(cfg *tree.Config) { cfg.SilentWorkers = map[int]bool{31: true} },
			live:   func(gw int) bool { return gw != 31 },
			ageOp:  1, restartsL1: 0,
			bound: func(cfg tree.Config) sim.Time { return 2*cfg.LeafExpiry + grace },
		},
		{
			name: "rack-flap",
			mutate: func(cfg *tree.Config) {
				plan := faults.NewPlan(cfg.Seed, faults.Config{Link: faults.LinkConfig{
					Flaps: []faults.Window{{Start: 0, End: 3 * sim.Millisecond}},
				}})
				cfg.UplinkFaults = func(rack int) *faults.LinkInjector {
					if rack != 0 {
						return nil
					}
					return plan.Link(uint64(rack))
				}
			},
			live:  nil, // full recovery: every worker's contribution lands
			ageOp: 0, restartsL1: 4 * blocks,
			bound: func(cfg tree.Config) sim.Time {
				return 2*treeSpineExpiry(cfg) + 2*cfg.LeafExpiry + grace
			},
		},
		{
			name:   "rack-failure",
			mutate: func(cfg *tree.Config) { cfg.SilentRacks = map[int]bool{0: true} },
			live:   func(gw int) bool { return gw >= 8 },
			ageOp:  2, restartsL1: 4 * blocks,
			bound: func(cfg tree.Config) sim.Time {
				return 4*treeSpineExpiry(cfg) + 2*cfg.LeafExpiry + grace
			},
		},
	}
}

// treeSpineExpiry is level 1's block expiry (LeafExpiry x4, as tree.Config
// documents), the detection clock for a straggling rack.
func treeSpineExpiry(cfg tree.Config) sim.Time { return 4 * cfg.LeafExpiry }

// runTreeChaos exercises the composed straggler semantics end to end and
// enforces both the recovery bounds and bit-exactness of the accepted sums
// against the closed-form expectation.
func runTreeChaos(p Params) ([]*Table, error) {
	const blocks = 4
	t := &Table{
		Title:   "Hierarchical tree chaos: composed straggler semantics (4 racks x 8 workers, fan-out 2)",
		Columns: []string{"Scenario", "Live", "Delivered", "Restarts", "MaxAgeOp", "MaxRecovery(ms)", "Bound(ms)", "Within", "BitExact"},
		Notes: []string{
			"Tree: 4 ToRs -> 2 spines -> root; 4 blocks per worker; expiry ladder 1/4/16 ms.",
			"age_op 1 = a ToR aged waiting on a worker (accept the partial); age_op >= 2 = a spine aged waiting on a rack (gen-restart).",
			"Restarts counts rack gen-restart events at spine level (one per rack and block); budget 1 restart per block.",
			"BitExact: accepted sums equal the closed-form sum over live workers — full fan-in for rack-flap (recovered), survivors for rack-failure.",
		},
	}
	var violations []string
	for _, sc := range treeChaosScenarios(blocks) {
		cfg := treeBaseCfg(p, treePoint{racks: 4, wpr: 8, fan: 2})
		cfg.Blocks = blocks
		sc.mutate(&cfg)
		tr, err := tree.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("treechaos %s: %w", sc.name, err)
		}
		registerTreeObs(p.Obs, tr)
		tr.Run(sim.Second)
		st := tr.Stats()

		liveWorkers := 0
		for gw := 0; gw < cfg.Workers(); gw++ {
			if sc.live == nil || sc.live(gw) {
				liveWorkers++
			}
		}
		liveOfRack := func(r int) bool {
			return sc.live == nil || sc.live(r*cfg.WorkersPerRack) || sc.live(r*cfg.WorkersPerRack+cfg.WorkersPerRack-1)
		}
		if want := uint64(liveWorkers * blocks); st.ResultsDelivered != want {
			return nil, fmt.Errorf("treechaos %s: %d/%d results delivered", sc.name, st.ResultsDelivered, want)
		}
		if st.GenRestarts[1] != sc.restartsL1 {
			return nil, fmt.Errorf("treechaos %s: %d level-1 gen-restarts, want %d", sc.name, st.GenRestarts[1], sc.restartsL1)
		}

		exact := true
		for blk := 0; blk < blocks && exact; blk++ {
			want := tree.ExpectedHash(tr.Cfg, blk, sc.live)
			for r := 0; r < cfg.Racks; r++ {
				if !liveOfRack(r) {
					continue
				}
				if sig := tr.RackSigs(r)[blk]; sig.Hash != want || sig.AgeOp != sc.ageOp {
					exact = false
					break
				}
			}
		}
		bound := sc.bound(cfg)
		within := "yes"
		if st.MaxRecovery > bound {
			within = "NO"
			violations = append(violations, fmt.Sprintf("%s: recovery %.3fms > bound %.3fms", sc.name, ms(st.MaxRecovery), ms(bound)))
		}
		exactStr := "yes"
		if !exact {
			exactStr = "NO"
			violations = append(violations, fmt.Sprintf("%s: accepted sums diverged from the closed-form expectation", sc.name))
		}
		t.AddRow(sc.name, liveWorkers, int64(st.ResultsDelivered), int64(st.TotalGenRestarts()),
			int(st.MaxAgeOp), ms(st.MaxRecovery), ms(bound), within, exactStr)
		p.logf("treechaos: %s live=%d restarts=%d maxAgeOp=%d recovery=%.3fms exact=%v",
			sc.name, liveWorkers, st.TotalGenRestarts(), st.MaxAgeOp, ms(st.MaxRecovery), exact)
	}
	if len(violations) > 0 {
		return nil, fmt.Errorf("treechaos: %d violation(s): %v", len(violations), violations)
	}
	return []*Table{t}, nil
}
