package harness

import (
	"fmt"

	"github.com/trioml/triogo/internal/mltrain"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/switchml"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/smem"
	"github.com/trioml/triogo/internal/trioml"
)

func init() {
	register(Experiment{
		Name: "ablation",
		Desc: "Design-choice ablations: RMW banking, timer-thread fan-out, REF-flag scanning, SwitchML packet sizes, hierarchical fan-in",
		Run:  runAblation,
	})
}

func runAblation(p Params) ([]*Table, error) {
	bank, err := ablationRMWBanking(p)
	if err != nil {
		return nil, err
	}
	fan, err := ablationTimerFanout(p)
	if err != nil {
		return nil, err
	}
	tables := []*Table{bank, fan, ablationREFScan()}
	sw, err := ablationSwitchMLPacketSize(p)
	if err != nil {
		return nil, err
	}
	tables = append(tables, sw, ablationHierarchy())
	return tables, nil
}

// ablationRMWBanking: a burst of vector adds offered at one instant drains
// ~NumEngines times faster with banking (§2.3: "the read-modify-write
// processing bandwidth scales with the raw memory bandwidth"). Each engine
// count is an isolated memory system, swept on the dse worker pool.
func ablationRMWBanking(p Params) (*Table, error) {
	t := &Table{
		Title:   "Ablation: banked vs single read-modify-write engine",
		Columns: []string{"Engines", "Burst drain (virtual us)", "Speedup"},
		Notes:   []string{"512 sixteen-gradient vector adds offered at t=0; time until the last engine op completes."},
	}
	// The 512 adds of 64 bytes, all at t=0, are one 32 KiB vector add: the
	// engines book its words in the same order either way.
	drain := func(engines int) sim.Time {
		m := smem.New(smem.Config{NumRMWEngines: engines})
		addr := m.Alloc(smem.TierSRAM, 1<<16)
		return m.AddVector32BE(0, addr, make([]byte, 512*64))
	}
	engines := []float64{1, 4, 12, 24}
	drains := make([]sim.Time, len(engines))
	if err := sweepAxis(p, "rmw_engines", engines, func(i int, v float64) (map[string]float64, error) {
		drains[i] = drain(int(v))
		return map[string]float64{"drain_us": float64(drains[i].Microseconds())}, nil
	}); err != nil {
		return nil, err
	}
	base := drains[0] // engines[0] == 1: the unbanked baseline
	for i, n := range engines {
		t.AddRow(int(n), drains[i].Microseconds(), fmt.Sprintf("%.1fx", float64(base)/float64(drains[i])))
	}
	return t, nil
}

// ablationTimerFanout: §5's N staggered threads each sweep 1/N of the table.
func ablationTimerFanout(p Params) (*Table, error) {
	t := &Table{
		Title:   "Ablation: timer-thread fan-out for hash-table scanning (20k records)",
		Columns: []string{"Threads", "Worst per-thread sweep (virtual us)"},
		Notes:   []string{"Per-thread work shrinks by 1/N, so detection latency stays bounded however large the table grows (§5)."},
	}
	threads := []float64{1, 10, 100}
	worsts := make([]sim.Time, len(threads))
	if err := sweepAxis(p, "timer_threads", threads, func(i int, v float64) (map[string]float64, error) {
		n := int(v)
		tb := hasheng.NewTable(hasheng.Config{Buckets: 8192})
		for k := uint64(0); k < 20000; k++ {
			tb.Insert(0, k, k)
		}
		var worst sim.Time
		for part := 0; part < n; part++ {
			_, done := tb.ScanPartition(0, part, n, func(uint64, uint64, bool) hasheng.ScanAction {
				return hasheng.ScanClearRef
			})
			if done > worst {
				worst = done
			}
		}
		worsts[i] = worst
		return map[string]float64{"worst_sweep_us": float64(worst.Microseconds())}, nil
	}); err != nil {
		return nil, err
	}
	for i, n := range threads {
		t.AddRow(int(n), worsts[i].Microseconds())
	}
	return t, nil
}

// ablationREFScan: the hardware REF flag lets a sweep decide "aged or not"
// without touching shared memory; the alternative reads each record's
// timestamp — a 64-byte memory transaction per record.
func ablationREFScan() *Table {
	t := &Table{
		Title:   "Ablation: REF-flag aging vs per-record timestamp reads (5k records, one sweep)",
		Columns: []string{"Strategy", "Sweep time (virtual us)", "Memory ops"},
	}
	const records = 5000
	build := func() (*hasheng.Table, *smem.Memory, []uint64) {
		tb := hasheng.NewTable(hasheng.Config{Buckets: 8192})
		m := smem.New(smem.Config{})
		addrs := make([]uint64, records)
		for k := uint64(0); k < records; k++ {
			addrs[k] = m.Alloc(smem.TierSRAM, 64)
			tb.Insert(0, k, addrs[k])
		}
		return tb, m, addrs
	}

	// REF strategy: flag check only.
	tb, m, _ := build()
	_, done := tb.ScanPartition(0, 0, 1, func(_, _ uint64, ref bool) hasheng.ScanAction {
		return hasheng.ScanClearRef
	})
	t.AddRow("REF flags (Trio)", done.Microseconds(), m.TotalOps())

	// Timestamp strategy: one synchronous record read per visit; the sweep
	// completes when the last read completes.
	tb, m, _ = build()
	var now sim.Time
	_, scanDone := tb.ScanPartition(0, 0, 1, func(_, val uint64, _ bool) hasheng.ScanAction {
		d := m.ReadInto(now, val, make([]byte, 64))
		if d > now {
			now = d
		}
		return hasheng.ScanKeep
	})
	if scanDone > now {
		now = scanDone
	}
	t.AddRow("timestamp reads", now.Microseconds(), m.TotalOps())
	return t
}

// ablationSwitchMLPacketSize compares SwitchML-64 and SwitchML-256 (§6.1:
// "SwitchML-256 performs better than SwitchML-64").
func ablationSwitchMLPacketSize(p Params) (*Table, error) {
	t := &Table{
		Title:   "Ablation: SwitchML-64 vs SwitchML-256 (ResNet50 iteration time, p=0)",
		Columns: []string{"Variant", "AvgIter(ms)"},
		Notes:   []string{"Smaller packets quadruple the packet count for the same gradients (§6.1)."},
	}
	scale, iters := trainScale(p)
	gradPoints := []float64{float64(switchml.Grads64), float64(switchml.Grads256)}
	avgMs := make([]float64, len(gradPoints))
	if err := sweepAxis(p, "switchml_grads", gradPoints, func(i int, v float64) (map[string]float64, error) {
		c, err := mltrain.NewCluster(mltrain.ClusterConfig{
			Model: mltrain.Models()[0], System: mltrain.SystemSwitchML,
			GradsPerPacket: int(v), Scale: scale, Seed: p.seed(),
		})
		if err != nil {
			return nil, err
		}
		res, err := c.Run(iters / 2)
		if err != nil {
			return nil, err
		}
		avgMs[i] = mltrain.AvgIterTime(res, 1).Milliseconds()
		return map[string]float64{"avg_iter_ms": avgMs[i]}, nil
	}); err != nil {
		return nil, err
	}
	for i, v := range gradPoints {
		t.AddRow(fmt.Sprintf("SwitchML-%d", int(v)), avgMs[i])
	}
	return t, nil
}

// ablationHierarchy: hierarchical aggregation reduces data as it moves up
// (§4) — the fabric carries one stream per first-level PFE instead of one
// per worker.
func ablationHierarchy() *Table {
	t := &Table{
		Title:   "Ablation: hierarchical vs single-level aggregation fan-in (6 workers, 64 blocks of 512 gradients)",
		Columns: []string{"Topology", "Top-level ingress streams", "Fabric bytes", "Worker bytes sent"},
	}
	const blocks, grads = 64, 512
	workerBytes := 6 * blocks * (54 + 4*grads)

	// Single level: all six workers feed one PFE directly; no fabric.
	t.AddRow("single-level (1 PFE)", 6, 0, workerBytes)

	// Hierarchical: 2 groups of 3 feed a top-level PFE over the fabric.
	eng := sim.NewEngine()
	r := trio.New(eng, trio.Config{NumPFEs: 3})
	h, err := trioml.SetupHierarchy(r, trioml.HierarchyConfig{
		JobID: 1, TopPFE: 2,
		Groups: []trioml.HierGroup{
			{PFE: 0, WorkerSrcIDs: []uint8{0, 1, 2}, WorkerPorts: []int{0, 1, 2}, UplinkPort: 15, TopPort: 0},
			{PFE: 1, WorkerSrcIDs: []uint8{3, 4, 5}, WorkerPorts: []int{0, 1, 2}, UplinkPort: 15, TopPort: 1},
		},
		ResultSpec: packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}},
	}, nil)
	if err != nil {
		panic(err) // static configuration
	}
	for b := uint32(0); b < blocks; b++ {
		for w := 0; w < 6; w++ {
			g := make([]int32, grads)
			r.Inject(w/3, w%3, uint64(w), packet.BuildTrioML(packet.UDPSpec{
				SrcIP: [4]byte{10, 0, 0, byte(w + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
			}, packet.TrioML{JobID: 1, BlockID: b, SrcID: uint8(w), GenID: 1}, g))
		}
	}
	eng.Run()
	// Workers inject directly, so the router's only links are the fabric's.
	var fabricBytes uint64
	for _, l := range h.Fabric {
		fabricBytes += l.Bytes
	}
	t.AddRow("hierarchical (2+1 PFEs)", 2, fabricBytes, workerBytes)
	return t
}
