package tree

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/sim"
)

func run(t *testing.T, cfg Config) (*Tree, RunStats) {
	t.Helper()
	tr, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(sim.Second)
	return tr, tr.Stats()
}

func baseCfg() Config {
	return Config{
		Spec:        Spec{Racks: 4, WorkersPerRack: 8, FanOut: 2},
		GradsPerPkt: 16, Blocks: 3, LeafExpiry: sim.Millisecond,
	}
}

func TestLevels(t *testing.T) {
	for _, c := range []struct {
		racks, fan, want int
	}{
		{1, 2, 1}, {2, 2, 2}, {4, 2, 3}, {8, 2, 4}, {500, 32, 3}, {5000, 64, 4},
	} {
		if got := (Spec{Racks: c.racks, FanOut: c.fan}).Levels(); got != c.want {
			t.Errorf("Levels(%d racks, fan %d) = %d, want %d", c.racks, c.fan, got, c.want)
		}
	}
}

func TestFullAggregation(t *testing.T) {
	cfg := baseCfg()
	tr, st := run(t, cfg)
	if len(tr.Levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(tr.Levels))
	}
	if want := uint64(32 * cfg.Blocks); st.ResultsDelivered != want {
		t.Fatalf("delivered %d results, want %d", st.ResultsDelivered, want)
	}
	if st.DegradedAccepted != 0 || st.MaxAgeOp != 0 || st.TotalGenRestarts() != 0 {
		t.Fatalf("fault-free run saw degradation: %+v", st)
	}
	// Leaf level saw every worker packet, spine levels one partial per child.
	if st.Levels[0].FanInPkts != uint64(32*cfg.Blocks) {
		t.Errorf("leaf fan-in %d, want %d", st.Levels[0].FanInPkts, 32*cfg.Blocks)
	}
	if st.Levels[1].FanInPkts != uint64(4*cfg.Blocks) || st.Levels[2].FanInPkts != uint64(2*cfg.Blocks) {
		t.Errorf("spine fan-in %d/%d, want %d/%d",
			st.Levels[1].FanInPkts, st.Levels[2].FanInPkts, 4*cfg.Blocks, 2*cfg.Blocks)
	}
	for blk := 0; blk < cfg.Blocks; blk++ {
		want := ExpectedHash(tr.Cfg, blk, nil)
		for r := 0; r < cfg.Racks; r++ {
			sig := tr.RackSigs(r)[blk]
			if sig.Hash != want {
				t.Fatalf("rack %d block %d: sum hash %#x, want %#x", r, blk, sig.Hash, want)
			}
			if sig.SrcCnt != 2 || sig.AgeOp != 0 {
				t.Fatalf("rack %d block %d: sig %+v, want full fan-in 2", r, blk, sig)
			}
		}
	}
}

func TestSingleRackIsFlat(t *testing.T) {
	cfg := Config{Spec: Spec{Racks: 1, WorkersPerRack: 6, FanOut: 2}, GradsPerPkt: 8, Blocks: 2}
	tr, st := run(t, cfg)
	if len(tr.Levels) != 1 {
		t.Fatalf("single rack built %d levels", len(tr.Levels))
	}
	if st.ResultsDelivered != 12 || st.DegradedAccepted != 0 {
		t.Fatalf("delivered %d (degraded %d), want 12 clean", st.ResultsDelivered, st.DegradedAccepted)
	}
	for blk := 0; blk < cfg.Blocks; blk++ {
		sig := tr.RackSigs(0)[blk]
		if sig.Hash != ExpectedHash(tr.Cfg, blk, nil) || sig.SrcCnt != 6 {
			t.Fatalf("block %d: sig %+v", blk, sig)
		}
	}
}

func TestAutoPlace(t *testing.T) {
	for _, c := range []struct {
		racks, req, parts int
		rack              []int
	}{
		{4, 1, 1, []int{0, 0, 0, 0}},
		{4, 8, 4, []int{0, 1, 2, 3}},
		{4, 3, 3, []int{0, 1, 2, 0}},
		{5, 2, 2, []int{0, 1, 0, 1, 0}}, // two balanced halves, spines with the lighter
		{1, 4, 1, []int{0}},             // flat tree: no inter-router links to partition over
	} {
		pl := AutoPlace(c.racks, c.req)
		if pl.Partitions != c.parts {
			t.Errorf("AutoPlace(%d, %d).Partitions = %d, want %d", c.racks, c.req, pl.Partitions, c.parts)
		}
		if got, want := pl.Spine(), c.parts-1; got != want {
			t.Errorf("AutoPlace(%d, %d).Spine() = %d, want %d", c.racks, c.req, got, want)
		}
		for r, want := range c.rack {
			if got := pl.Rack(r); got != want {
				t.Errorf("AutoPlace(%d, %d).Rack(%d) = %d, want %d", c.racks, c.req, r, got, want)
			}
		}
	}
}

// outcome flattens the partition-independent observables of a run.
type outcome struct {
	st   RunStats
	sigs [][]ResultSig
	lats float64
}

func observe(tr *Tree, st RunStats) outcome {
	o := outcome{st: st, lats: st.Latency.Sum()}
	o.st.Latency = sim.Sample{} // not comparable; summarized via lats
	o.st.Partitions = 0         // the one field that legitimately differs
	for r := 0; r < tr.Cfg.Racks; r++ {
		o.sigs = append(o.sigs, tr.RackSigs(r))
	}
	return o
}

// TestPartitionDeterminism pins the tentpole determinism claim at package
// level: identical outcomes (timing included) at P = 1, P = racks+1, and an
// in-between partition count that forces rack sharing.
func TestPartitionDeterminism(t *testing.T) {
	cfg := baseCfg()
	var ref outcome
	for i, parts := range []int{1, 5, 3} {
		c := cfg
		c.Partitions = parts
		tr, st := run(t, c)
		got := observe(tr, st)
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("P=%d diverged from P=1:\n  P=1: %+v\n  P=%d: %+v", parts, ref, parts, got)
		}
	}
}

// TestStragglerWorker: one silent worker is handled at its ToR — the leaf
// ages, emits an age_op=1 partial, and every level above aggregates it
// normally. Workers accept the partial; no gen-restart happens.
func TestStragglerWorker(t *testing.T) {
	cfg := baseCfg()
	cfg.SilentWorkers = map[int]bool{31: true} // rack 3, worker 7
	tr, st := run(t, cfg)
	if want := uint64(31 * cfg.Blocks); st.ResultsDelivered != want {
		t.Fatalf("delivered %d, want %d", st.ResultsDelivered, want)
	}
	if st.DegradedAccepted != st.ResultsDelivered {
		t.Fatalf("degraded %d of %d: every result should be partial", st.DegradedAccepted, st.ResultsDelivered)
	}
	if st.MaxAgeOp != 1 {
		t.Fatalf("MaxAgeOp = %d, want 1 (leaf-level aging only)", st.MaxAgeOp)
	}
	if st.TotalGenRestarts() != 0 {
		t.Fatalf("straggler worker must not trigger gen-restarts, got %d", st.TotalGenRestarts())
	}
	if st.Levels[0].BlocksDegraded != uint64(cfg.Blocks) {
		t.Fatalf("leaf straggler events = %d, want %d", st.Levels[0].BlocksDegraded, cfg.Blocks)
	}
	// Recovery bound: the leaf ages within [expiry, 2*expiry] of block start.
	if limit := 2*cfg.LeafExpiry + 2*sim.Millisecond; st.MaxRecovery > limit {
		t.Fatalf("recovery %v exceeds composed bound %v", st.MaxRecovery, limit)
	}
	for blk := 0; blk < cfg.Blocks; blk++ {
		want := ExpectedHash(tr.Cfg, blk, func(gw int) bool { return gw != 31 })
		if sig := tr.RackSigs(0)[blk]; sig.Hash != want || sig.AgeOp != 1 {
			t.Fatalf("block %d: sig %+v, want partial sum %#x age_op 1", blk, sig, want)
		}
	}
}

// TestStragglerRackFlap: rack 0's uplink flaps over the first sends, so the
// spine above it ages (age_op=2) and its partial rides down as the
// gen-restart signal; the re-contribution under the next generation
// recovers the full bit-exact sum.
func TestStragglerRackFlap(t *testing.T) {
	cfg := baseCfg()
	cfg.Blocks = 2
	plan := faults.NewPlan(1, faults.Config{Link: faults.LinkConfig{
		Flaps: []faults.Window{{Start: 0, End: 3 * sim.Millisecond}},
	}})
	cfg.UplinkFaults = func(rack int) *faults.LinkInjector {
		if rack != 0 {
			return nil
		}
		return plan.Link(uint64(rack))
	}
	tr, st := run(t, cfg)
	if want := uint64(32 * cfg.Blocks); st.ResultsDelivered != want {
		t.Fatalf("delivered %d, want %d", st.ResultsDelivered, want)
	}
	if st.DegradedAccepted != 0 {
		t.Fatalf("final results must be clean after restart, got %d degraded", st.DegradedAccepted)
	}
	if st.MaxAgeOp < 2 {
		t.Fatalf("MaxAgeOp = %d: the spine's rack-straggler partial was never observed", st.MaxAgeOp)
	}
	if want := uint64(4 * cfg.Blocks); st.GenRestarts[1] != want || st.TotalGenRestarts() != want {
		t.Fatalf("gen-restarts %v, want %d at level 1", st.GenRestarts, want)
	}
	// Composed bound: the spine detects the missing rack within twice its
	// expiry; one restart round-trip re-aggregates in microseconds.
	spineExp := tr.Cfg.expiry(1)
	if limit := 2*spineExp + 2*cfg.LeafExpiry + 2*sim.Millisecond; st.MaxRecovery > limit {
		t.Fatalf("recovery %v exceeds composed bound %v", st.MaxRecovery, limit)
	}
	for blk := 0; blk < cfg.Blocks; blk++ {
		want := ExpectedHash(tr.Cfg, blk, nil)
		for r := 0; r < cfg.Racks; r++ {
			if sig := tr.RackSigs(r)[blk]; sig.Hash != want || sig.AgeOp != 0 {
				t.Fatalf("rack %d block %d: sig %+v, want bit-exact full sum %#x", r, blk, sig, want)
			}
		}
	}
}

// TestRackFailure: a permanently silent rack exhausts the restart budget;
// the surviving racks settle on a consistent degraded sum over the live
// workers.
func TestRackFailure(t *testing.T) {
	cfg := baseCfg()
	cfg.Blocks = 2
	cfg.SilentRacks = map[int]bool{0: true}
	tr, st := run(t, cfg)
	if want := uint64(24 * cfg.Blocks); st.ResultsDelivered != want {
		t.Fatalf("delivered %d, want %d", st.ResultsDelivered, want)
	}
	if st.DegradedAccepted != st.ResultsDelivered || st.MaxAgeOp != 2 {
		t.Fatalf("want all accepts degraded at age_op 2, got %d/%d age_op %d",
			st.DegradedAccepted, st.ResultsDelivered, st.MaxAgeOp)
	}
	if want := uint64(4 * cfg.Blocks); st.TotalGenRestarts() != want {
		t.Fatalf("gen-restarts %d, want %d (one per rack and block)", st.TotalGenRestarts(), want)
	}
	for blk := 0; blk < cfg.Blocks; blk++ {
		want := ExpectedHash(tr.Cfg, blk, func(gw int) bool { return gw >= 8 })
		for r := 1; r < cfg.Racks; r++ {
			if sig := tr.RackSigs(r)[blk]; sig.Hash != want || sig.AgeOp != 2 {
				t.Fatalf("rack %d block %d: sig %+v, want survivors' sum %#x age_op 2", r, blk, sig, want)
			}
		}
	}
}

// TestChaosPartitionDeterminism re-pins determinism under faults: the flap
// scenario (timer aging, gen-restart, fault windows) is identical at any
// partition count.
func TestChaosPartitionDeterminism(t *testing.T) {
	build := func(parts int) outcome {
		cfg := baseCfg()
		cfg.Blocks = 2
		cfg.Partitions = parts
		plan := faults.NewPlan(1, faults.Config{Link: faults.LinkConfig{
			Flaps: []faults.Window{{Start: 0, End: 3 * sim.Millisecond}},
		}})
		cfg.UplinkFaults = func(rack int) *faults.LinkInjector {
			if rack != 0 {
				return nil
			}
			return plan.Link(uint64(rack))
		}
		tr, st := run(t, cfg)
		return observe(tr, st)
	}
	ref := build(1)
	for _, parts := range []int{5, 2} {
		if got := build(parts); !reflect.DeepEqual(ref, got) {
			t.Fatalf("chaos run diverged at P=%d:\n  P=1: %+v\n  got: %+v", parts, ref, got)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Spec: Spec{Racks: 0, WorkersPerRack: 1}},
		{Spec: Spec{Racks: 1, WorkersPerRack: 300}},
		{Spec: Spec{Racks: 2, WorkersPerRack: 1}, Blocks: 65},
	}
	for i, cfg := range bad {
		if _, err := Build(cfg); err == nil {
			t.Errorf("config %d: Build accepted invalid config %+v", i, cfg)
		}
	}
}

// TestTreeAllocsPerPacket gates the per-packet garbage of a tree run: heap
// allocations per frame moved (every contribution arriving at a level, every
// result travelling down one link), on a 4-rack x 50-worker tree. The count is
// deterministic. What remains, and why it is not pooled:
//   - one frame per worker send (BuildTrioML) and per aggregated result — a
//     result frame is aliased by every port of its multicast and by the links
//     behind them, so no single owner could return it to a pool;
//   - one completion record per 32 in-flight threads, and one egress
//     delivery record per multicast or unicast in flight (a multicast to a
//     whole rack is one record, not one per port): both are pooled per PFE,
//     but a one-shot tree has a whole rack's contributions in flight at
//     once, so each pool is still growing to its peak when the run ends;
//   - one in-flight queue per link and one port-flow table per PFE, made when
//     the first frame crosses rather than in Build (set-up time is a tracked
//     metric too); a one-shot tree sends each link only Blocks frames, so
//     these are not yet amortised either;
//   - engine slab and run-table chunks, the run index (doubled from 256 slots
//     as live runs grow) and the heap beside it: growth amortised over
//     hundreds of events, with the run free list threaded through the run
//     records so it never allocates.
//
// A partitioned tree adds one detached frame copy per partition crossing.
// Per-packet records that used to be here (4.08 per frame) and must not come
// back: the PFE's Packet and head buffer (now inside the PFE's one context),
// a whole thread context per contribution (now a completion record, drawn
// from chunks), per-flow reorder maps (port-indexed slice), per-frame link
// delivery records (the link's in-flight queue), each aggregator's decoded
// result vector growing to a block (the result is now read straight into its
// frame), and one egress event record per result port with the emit entries
// growing to a whole multicast (1.50 per frame; a multicast is now one emit
// and one delivery record).
func TestTreeAllocsPerPacket(t *testing.T) {
	cfg := Config{
		Spec:        Spec{Racks: 4, WorkersPerRack: 50, FanOut: 2},
		GradsPerPkt: 32, Blocks: 2, Window: 2, LeafExpiry: sim.Millisecond,
	}
	const runs = 3
	var trees []*Tree
	for i := 0; i <= runs; i++ { // AllocsPerRun makes one warm-up call
		tr, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		trees[next].Run(sim.Second)
		next++
	})
	st := trees[runs].Stats()
	if want := uint64(cfg.Workers() * cfg.Blocks); st.ResultsDelivered != want {
		t.Fatalf("delivered %d results, want %d", st.ResultsDelivered, want)
	}
	frames := st.ResultsDelivered
	for li, ls := range st.Levels {
		frames += ls.FanInPkts
		if li < len(st.Levels)-1 {
			frames += uint64(ls.Nodes * cfg.Blocks)
		}
	}
	const limit = 1.24
	if perFrame := allocs / float64(frames); perFrame > limit {
		t.Fatalf("%.0f allocations for %d frames: %.2f per frame, want <= %.2f", allocs, frames, perFrame, limit)
	} else {
		t.Logf("%.0f allocations for %d frames: %.2f per frame", allocs, frames, perFrame)
	}
}

// TestTreeBuildAllocsPerWorker pins what wiring a worker costs: tree.Build at
// 8 racks x 200 workers, in heap objects (testing.AllocsPerRun) and bytes
// (the MemStats.TotalAlloc delta) per simulated worker. A worker is two
// 96-byte links (its NIC cable's uplink and downlink) and a few slots in its
// bank's and its router's slices; the routers, jobs and banks amortise over
// 200 workers. What must not come back: four closures per cable (the
// uplink's receiver and its Send method value, the downlink's receiver and
// an egress closure feeding it) and a 176-byte link, 6.32 objects and 680 B
// per worker; and a router-wide list of every link built, which nothing on
// the tree's path read (2.35 objects and 432 B per worker with it).
func TestTreeBuildAllocsPerWorker(t *testing.T) {
	cfg := Config{
		Spec:        Spec{Racks: 8, WorkersPerRack: 200, FanOut: 32},
		GradsPerPkt: 32, Blocks: 2, Window: 2, LeafExpiry: sim.Millisecond,
	}
	build := func() {
		if _, err := Build(cfg); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 5
	workers := float64(cfg.Workers())
	objs := testing.AllocsPerRun(runs, build) / workers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / workers
	t.Logf("tree.Build: %.2f objects and %.0f B per worker", objs, bytes)
	const maxObjs, maxBytes = 2.35, 400
	if objs > maxObjs || bytes > maxBytes {
		t.Fatalf("tree.Build makes %.2f objects and %.0f B per worker, want <= %.2f and <= %d", objs, bytes, maxObjs, maxBytes)
	}
}
