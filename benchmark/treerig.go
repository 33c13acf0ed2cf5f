package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/tree"
)

// treeRunner runs one multi-rack aggregation tree per repetition. A tree is
// one-shot (Build, Run, Stats), so every repetition builds its own. The
// gradient values are fixed by the tree package (worker + block + lane) so
// that tree.ExpectedHash knows the sum in closed form; the seed is passed on
// but does not change them.
type treeRunner struct {
	cfg  tree.Config
	want []uint64 // tree.ExpectedHash per block

	// reference, when set, is the digest a repetition must reproduce: the
	// P=2 workload takes it from a Partitions:1 run of the same tree.
	reference uint64
}

func newTreeRunner(cfg tree.Config) *treeRunner {
	r := &treeRunner{cfg: cfg}
	for blk := 0; blk < cfg.Blocks; blk++ {
		r.want = append(r.want, tree.ExpectedHash(cfg, blk, nil))
	}
	return r
}

func (r *treeRunner) rep(trs []*tracer) (*rep, error) {
	return r.repAt(first(trs), r.cfg.Partitions)
}

func (r *treeRunner) repAt(tr *tracer, partitions int) (*rep, error) {
	cfg := r.cfg
	cfg.Partitions = partitions
	out := &rep{}
	// The previous repetition's tree is garbage by now; collect it outside
	// the timed sections so every repetition starts from the same heap.
	runtime.GC()
	tr.begin(spSetup, 0)
	t0 := time.Now()
	t, err := tree.Build(cfg)
	out.setup = time.Since(t0)
	tr.end()
	if err != nil {
		return nil, err
	}
	out.host = measure(func() {
		tr.begin(spTreeRun, 0)
		t.Run(sim.Second)
		tr.end()
	})
	st := t.Stats()

	workers := cfg.Workers()
	out.ops = workers * cfg.Blocks
	out.pkts = uint64(out.ops) + st.ResultsDelivered
	out.payload = uint64(out.ops) * uint64(4*cfg.GradsPerPkt)
	if missing := out.ops - int(st.ResultsDelivered); missing > 0 {
		out.failed += missing
		out.note("%d of %d results never delivered", missing, out.ops)
	}
	if st.DegradedAccepted > 0 || st.TotalGenRestarts() > 0 {
		out.failed += int(st.DegradedAccepted)
		out.failed = max(out.failed, 1)
		out.note("%d degraded accepts and %d gen-restarts on a fault-free tree", st.DegradedAccepted, st.TotalGenRestarts())
	}
	rootFanIn := len(t.Root.Children)
	if rootFanIn == 0 {
		rootFanIn = cfg.WorkersPerRack // a single rack: its ToR is the root
	}
	for rack := 0; rack < cfg.Racks; rack++ {
		for blk, sig := range t.RackSigs(rack) {
			if sig.Hash != r.want[blk] || int(sig.SrcCnt) != rootFanIn {
				out.failed += cfg.WorkersPerRack
				out.note("rack %d block %d: sum hash %#x (fan-in %d), want %#x", rack, blk, sig.Hash, sig.SrcCnt, r.want[blk])
			}
		}
	}
	out.failed = min(out.failed, out.ops)

	lat := st.Latency
	out.sim = map[string]float64{
		"virt.latency_us_p50": lat.Percentile(50),
		"virt.latency_us_p99": lat.Percentile(99),
		"virt.goodput_gbps":   ratio(float64(out.payload)*8, st.FinishedAt.Seconds()) / 1e9,
	}
	// Partitions is left out of the digest on purpose: the statistics must
	// not depend on how the tree was placed.
	out.digest = hash64(fmt.Sprintf("%d|%+v|%d|%d|%d|%v|%v|%v|%d|%v|%v|%v", st.Workers, st.Levels, st.ResultsDelivered,
		st.DegradedAccepted, st.MaxAgeOp, st.GenRestarts, st.MaxRecovery, st.FinishedAt,
		lat.N(), lat.Sum(), lat.Percentile(50), lat.Percentile(99)))
	if r.reference != 0 && out.digest != r.reference {
		out.failed = out.ops
		out.note("RunStats at %d partitions differ from the single-partition reference", partitions)
	}

	c := map[string]float64{
		"tree.build_s":              out.setup.Seconds(),
		"tree.fanin_pkts_l0":        float64(st.Levels[0].FanInPkts),
		"tree.gen_restarts":         float64(st.TotalGenRestarts()),
		"tree.rss_bytes_per_worker": procStatusKB("VmHWM") * 1024 / float64(workers),
		"trioml.blocks_degraded":    0,
	}
	// Every frame the tree moves is either a contribution arriving at some
	// level (its FanInPkts) or a result travelling down one link: to each
	// non-root router and to each worker, once per block.
	frames := st.ResultsDelivered
	for li, ls := range st.Levels {
		frames += ls.FanInPkts
		if li > 0 {
			c["tree.fanin_pkts_upper"] += float64(ls.FanInPkts)
		}
		if li < len(st.Levels)-1 {
			frames += uint64(ls.Nodes * cfg.Blocks)
		}
		c["trioml.grads_aggregated"] += float64(ls.GradsAggregated)
		c["trioml.blocks_completed"] += float64(ls.BlocksCompleted)
		c["trioml.blocks_degraded"] += float64(ls.BlocksDegraded)
	}
	c["netsim.frames"] = float64(frames)
	engines := []*sim.Engine{t.Root.Engine}
	if t.Cluster != nil {
		engines = engines[:0]
		var adv, waits, msgs uint64
		for i := 0; i < t.Cluster.Partitions(); i++ {
			engines = append(engines, t.Cluster.Engine(i))
			ps := t.Cluster.Stats(i)
			adv, waits, msgs = adv+ps.Advances, waits+ps.BarrierWaits, msgs+ps.Messages
		}
		c["sim.cluster.advances"] = float64(adv)
		c["sim.cluster.barrier_waits"] = float64(waits)
		c["sim.cluster.msgs"] = float64(msgs)
		c["sim.cluster.lookahead_ns"] = float64(t.Cluster.Lookahead())
	}
	var heap, wheel uint64
	for _, e := range engines {
		m := e.Metrics()
		c["sim.events_executed"] += float64(m.Executed)
		c["sim.peak_pending"] = max(c["sim.peak_pending"], float64(m.PeakPending))
		heap, wheel = heap+m.HeapInserts, wheel+m.WheelInserts
	}
	c["sim.heap_insert_share"] = ratio(float64(heap), float64(heap+wheel))
	if t.Cluster != nil {
		// Windows are global: every partition either advances or waits in each.
		windows := (c["sim.cluster.advances"] + c["sim.cluster.barrier_waits"]) / float64(len(engines))
		c["sim.cluster.events_per_window"] = ratio(c["sim.events_executed"], windows)
	}
	for _, level := range t.Levels {
		for _, n := range level {
			addPFECounts(c, n.Router.PFE(0))
			c["trioml.timer_scan_records"] += float64(n.Agg.Stats().TimerScanRecords)
			c["trioml.duplicates"] += float64(n.Agg.Stats().Duplicates)
		}
	}
	c["trioml.instr_per_grad"] = ratio(c["trio.pfe.instructions"], c["trioml.grads_aggregated"])
	out.counts = c
	return out, nil
}
