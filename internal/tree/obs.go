package tree

import (
	"fmt"

	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
)

// LevelStats aggregates one router level's §4/§5 activity.
type LevelStats struct {
	Nodes           int
	FanInPkts       uint64 // contributions received (worker pkts at level 0, child partials above)
	ResultsEmitted  uint64
	BlocksCompleted uint64
	BlocksDegraded  uint64 // straggler events: level 0 = straggler workers, >= 1 = straggler racks/subtrees
	GradsAggregated uint64
}

// RunStats is the outcome of one Tree.Run, gathered when the simulation is
// quiescent.
type RunStats struct {
	Workers    int
	Levels     []LevelStats // [0] = ToRs
	Partitions int

	ResultsDelivered uint64     // results accepted by workers
	DegradedAccepted uint64     // of those, partial (degraded) results
	MaxAgeOp         uint8      // highest straggler level any result carried
	GenRestarts      [16]uint64 // aged level -> rack gen-restart events
	Latency          sim.Sample // worker-0 send->accept per rack and block, µs
	MaxRecovery      sim.Time   // worst worker send->accept anywhere (straggler recovery)
	FinishedAt       sim.Time   // last accept
}

// TotalGenRestarts sums restart events over levels.
func (s *RunStats) TotalGenRestarts() uint64 {
	var n uint64
	for _, v := range s.GenRestarts {
		n += v
	}
	return n
}

// Stats gathers the run outcome. Call only when the tree is quiescent
// (after Run returns): it reads state owned by partition goroutines.
func (t *Tree) Stats() RunStats {
	s := RunStats{Workers: t.Cfg.Workers(), Partitions: 1}
	if t.Cluster != nil {
		s.Partitions = t.Cluster.Partitions()
	}
	for _, level := range t.Levels {
		var ls LevelStats
		ls.Nodes = len(level)
		for _, n := range level {
			st := n.Agg.Stats()
			ls.FanInPkts += st.Packets
			ls.ResultsEmitted += st.ResultsEmitted
			ls.BlocksCompleted += st.BlocksCompleted
			ls.BlocksDegraded += st.BlocksDegraded
			ls.GradsAggregated += st.GradsAggregated
		}
		s.Levels = append(s.Levels, ls)
	}
	for _, b := range t.banks {
		s.ResultsDelivered += b.delivered
		s.DegradedAccepted += b.degraded
		if b.maxAgeOp > s.MaxAgeOp {
			s.MaxAgeOp = b.maxAgeOp
		}
		for i, v := range b.genRestarts {
			s.GenRestarts[i] += v
		}
		for _, d := range b.lats {
			s.Latency.Add(float64(d) / float64(sim.Microsecond))
		}
		if b.maxRecovery > s.MaxRecovery {
			s.MaxRecovery = b.maxRecovery
		}
		if b.lastAccept > s.FinishedAt {
			s.FinishedAt = b.lastAccept
		}
	}
	return s
}

// RackSigs returns rack r's accepted-result signatures, one per block — the
// bit-exactness evidence chaos scenarios compare across racks and against a
// fault-free oracle.
func (t *Tree) RackSigs(r int) []ResultSig { return t.banks[r].sigs }

// RegisterObs exports the tree's per-level metrics. Like the engine's own
// series, the func-backed counters read partition-goroutine-owned state
// without atomics; scrape only when the tree is quiescent (after Run).
func (t *Tree) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc(obs.Desc{
		Name: "triogo_tree_levels", Unit: "levels",
		Help: "Router levels in the aggregation tree (1 = single ToR, 2 = ToRs+root, ...).",
	}, func() float64 { return float64(len(t.Levels)) })
	r.GaugeFunc(obs.Desc{
		Name: "triogo_tree_workers", Unit: "workers",
		Help: "Simulated workers across all racks.",
	}, func() float64 { return float64(t.Cfg.Workers()) })
	r.GaugeFunc(obs.Desc{
		Name: "triogo_tree_partitions", Unit: "partitions",
		Help: "Sim partitions the tree is placed on (AutoPlace: racks round-robin, spines with the fewest).",
	}, func() float64 {
		if t.Cluster == nil {
			return 1
		}
		return float64(t.Cluster.Partitions())
	})
	for li := range t.Levels {
		li := li
		lbl := fmt.Sprintf(`level="%d"`, li)
		r.GaugeFunc(obs.Desc{
			Name: "triogo_tree_nodes", Labels: lbl, Unit: "routers",
			Help: "Routers at this tree level (level 0 = ToRs).",
		}, func() float64 { return float64(len(t.Levels[li])) })
		r.CounterFunc(obs.Desc{
			Name: "triogo_tree_fanin_pkts_total", Labels: lbl, Unit: "packets",
			Help: "Contributions received at this level: worker packets at level 0, child partials above.",
		}, func() uint64 {
			var n uint64
			for _, nd := range t.Levels[li] {
				n += nd.Agg.Stats().Packets
			}
			return n
		})
		r.CounterFunc(obs.Desc{
			Name: "triogo_tree_results_total", Labels: lbl, Unit: "results",
			Help: "Results emitted at this level (upstream partials below the root, multicasts at it).",
		}, func() uint64 {
			var n uint64
			for _, nd := range t.Levels[li] {
				n += nd.Agg.Stats().ResultsEmitted
			}
			return n
		})
		r.CounterFunc(obs.Desc{
			Name: "triogo_tree_straggler_events_total", Labels: lbl, Unit: "blocks",
			Help: "Blocks this level aged out: straggler workers at level 0, straggler racks/subtrees above.",
		}, func() uint64 {
			var n uint64
			for _, nd := range t.Levels[li] {
				n += nd.Agg.Stats().BlocksDegraded
			}
			return n
		})
		r.CounterFunc(obs.Desc{
			Name: "triogo_tree_gen_restarts_total", Labels: lbl, Unit: "restarts",
			Help: "Rack gen-restart events triggered by this level aging out a subtree (one per restarting rack).",
		}, func() uint64 {
			var n uint64
			for _, b := range t.banks {
				n += b.genRestarts[li]
			}
			return n
		})
	}
	r.CounterFunc(obs.Desc{
		Name: "triogo_tree_worker_results_total", Unit: "results",
		Help: "Results accepted by workers across all racks.",
	}, func() uint64 {
		var n uint64
		for _, b := range t.banks {
			n += b.delivered
		}
		return n
	})
	r.CounterFunc(obs.Desc{
		Name: "triogo_tree_worker_degraded_total", Unit: "results",
		Help: "Worker-accepted results that were partial (degraded) after the restart budget.",
	}, func() uint64 {
		var n uint64
		for _, b := range t.banks {
			n += b.degraded
		}
		return n
	})
}
