package main

import (
	"fmt"
	"time"

	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/tree"
)

// rep is the outcome of one repetition: a fixed, deterministic amount of
// work on a freshly built rig. Counts in it repeat exactly from repetition
// to repetition; only the host times move.
type rep struct {
	setup   time.Duration // untimed preparation: rig/tree build, program compile, socket bind, warm-up ops
	host    hostDelta     // the timed section
	pkts    uint64        // packets through the aggregator in the timed section
	payload uint64        // gradient bytes contributed in the timed section
	ops     int           // operations attempted: blocks per worker (simulator) or all-reduces (hostagg)
	failed  int           // of those, wrong, missing or unexpectedly degraded
	opLat   []time.Duration
	digest  uint64             // hash of the simulated statistics; 0 where nothing is simulated
	sim     map[string]float64 // simulated-time figures (exact, repeat bit for bit)
	counts  map[string]float64 // layer counters read through public functions after the run
	notes   []string
}

func (r *rep) note(format string, args ...any) {
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// runner is one workload's rig factory. trs is nil with tracing off;
// otherwise trs[0] traces the driving goroutine and any further entries the
// client goroutines.
type runner interface {
	rep(trs []*tracer) (*rep, error)
	// tracks names the tracers rep wants.
	tracks() []string
	// replay times the layers' public entry points alone, at the sizes and
	// counts the repetition r produced (see replay.go).
	replay(r *rep) map[string]float64
}

func (r *pfeRunner) tracks() []string  { return []string{"sim"} }
func (r *treeRunner) tracks() []string { return []string{"sim"} }
func (r *hostaggRunner) tracks() []string {
	return append([]string{"ops"}, clientTracks(r.spec.clients)...)
}

func clientTracks(n int) []string {
	s := make([]string, n)
	for i := range s {
		s[i] = fmt.Sprintf("client%d", i)
	}
	return s
}

// workload is one row of the benchmark. Sizes are for the 2-CPU reference
// box: a timed repetition lands between 0.1 and 3 s there. scale divides the
// block/op/rack counts for the go test smoke run.
type workload struct {
	name string
	// shape records clients, window and final sizes; BENCHMARK.json's "why"
	// repeats it next to the reason the workload exists.
	shape string
	new   func(scale int, seed uint64) (runner, error)
}

func div(n, scale int) int { return max(n/scale, 1) }

// treeCfg is the 10^5-worker tree of the harness's tree sweep: 500 ToRs of
// 200 workers, 16 spines, one root.
func treeCfg(scale int, partitions int, seed uint64) tree.Config {
	return tree.Config{
		Spec:        tree.Spec{Racks: div(500, scale), WorkersPerRack: 200, FanOut: 32},
		GradsPerPkt: 32, Blocks: 2, Window: 2, LeafExpiry: sim.Millisecond, TimerThreads: 4,
		Partitions: partitions, Seed: seed,
	}
}

var workloads = []workload{
	{
		name:  "agg-small",
		shape: "4 workers, window 1, 64 grads/pkt, 4000 blocks/worker, 100 timer threads at 10 ms",
		new: func(scale int, seed uint64) (runner, error) {
			return newPFERunner(pfeSpec{workers: 4, grads: 64, window: 1, blocks: div(4000, scale),
				timers: 100, timeout: 10 * sim.Millisecond}, seed), nil
		},
	},
	{
		name:  "agg-large",
		shape: "6 workers, window 256, 1024 grads/pkt, 1536 blocks/worker, 100 timer threads at 10 ms",
		new: func(scale int, seed uint64) (runner, error) {
			return newPFERunner(pfeSpec{workers: 6, grads: 1024, window: min(256, div(1536, scale)), blocks: div(1536, scale),
				timers: 100, timeout: 10 * sim.Millisecond}, seed), nil
		},
	},
	{
		name:  "mcagg-large",
		shape: "2 workers, window 16, 1024 grads/pkt, 1024 blocks/worker, 32 record slots, no timers",
		new: func(scale int, seed uint64) (runner, error) {
			return newPFERunner(pfeSpec{workers: 2, grads: 1024, window: 16, blocks: div(1024, scale),
				timeout: 10 * sim.Millisecond, mcagg: true}, seed), nil
		},
	},
	{
		name:  "tree-100k",
		shape: "500 racks x 200 workers, fan-out 32, window 2, 32 grads/pkt, 2 blocks/worker, 1 partition",
		new: func(scale int, seed uint64) (runner, error) {
			return newTreeRunner(treeCfg(scale, 1, seed)), nil
		},
	},
	{
		name:  "tree-100k-p2",
		shape: "the tree-100k tree on 2 sim partitions",
		new: func(scale int, seed uint64) (runner, error) {
			r := newTreeRunner(treeCfg(scale, 2, seed))
			// One single-partition run of the same tree is the reference
			// every partitioned repetition must reproduce exactly.
			ref, err := r.repAt(nil, 1)
			if err != nil {
				return nil, err
			}
			if ref.failed > 0 {
				return nil, fmt.Errorf("single-partition reference run failed: %v", ref.notes)
			}
			r.reference = ref.digest
			return r, nil
		},
	},
	{
		name:  "hostagg-small",
		shape: "2 clients, window 32, 16384-grad vectors in 32-grad blocks (512 blocks/op), 100 ops/rep",
		new: func(scale int, seed uint64) (runner, error) {
			return newHostaggRunner(hostaggSpec{clients: 2, window: 32, vector: 16384, blockGrads: 32,
				ops: div(100, scale), warmOps: div(20, scale)}, seed), nil
		},
	},
	{
		name:  "hostagg-bulk",
		shape: "2 clients, window 8, 262144-grad (1 MiB) vectors in 1024-grad blocks (256 blocks/op), 60 ops/rep",
		new: func(scale int, seed uint64) (runner, error) {
			// Window 8, not 16: 2 clients x 16 x 4 KiB datagrams overrun the
			// default 208 KiB socket buffer whenever SO_REUSEPORT hashes both
			// clients onto one server socket, and every op then waits out a
			// 20 ms retransmit — the number would measure a timer.
			return newHostaggRunner(hostaggSpec{clients: 2, window: 8, vector: 262144, blockGrads: 1024,
				ops: div(60, scale), warmOps: div(12, scale)}, seed), nil
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
