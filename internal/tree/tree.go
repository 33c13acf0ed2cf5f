// Package tree builds multi-rack hierarchical aggregation trees: leaf ToR
// Trio routers aggregate their rack's workers, spine routers aggregate ToR
// results, and further spine levels aggregate spines until a single root —
// the datacenter-scale extrapolation of the paper's single-chassis
// hierarchical aggregation (§4, Fig. 11b). Every router runs the unmodified
// trioml.Aggregator; what this package adds is the control-plane wiring
// (each worker cabled with Router.Cable, each router connected to its parent
// with Router.Connect — the same link pair as the chassis fabric, at 100 Gbps
// cable speed), the composition of gen-restart/straggler-timeout semantics
// across levels, and topology-aware placement of the tree onto sim.Cluster partitions so
// 10^5–10^6 simulated workers stay tractable.
//
// Composed straggler semantics. Each level runs the §5 timer-thread aging
// with its own block expiry, growing by levelExpiryFactor per level so a
// parent never times out a child that is still inside its own repair
// window. A straggler *worker* is handled at its ToR exactly as in the flat
// protocol: the ToR ages the block and sends a partial upward stamped
// age_op=1; upper levels aggregate it normally and the final result reaches
// every worker marked degraded with age_op=1 — workers accept the partial.
// A straggler *rack* is different: the spine above it ages the block,
// proceeds with partial fan-in, and stamps age_op=level+1 (>= 2). That
// result rides the ordinary result multicast down the tree, so it doubles
// as the gen-restart signal: a worker that sees a degraded result with
// age_op >= 2 re-contributes the block under the next generation id (up to
// maxRestarts times), and the whole tree re-aggregates it — recovering the
// full bit-exact sum when the rack's outage was transient.
package tree

import (
	"fmt"
	"sync/atomic"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trioml"
)

// levelExpiryFactor grows the block expiry per tree level. The factor-4
// margin covers the worst-case detection lag of the level below: a child's
// (possibly degraded) contribution arrives at most ~2x the child's expiry
// after block start (REF-flag aging fires between one and two scan
// intervals after the last touch), so a parent whose own expiry is 4x the
// child's never ages a block its child is still repairing.
const levelExpiryFactor = 4

// MaxBlocks bounds Config.Blocks: worker banks track outstanding blocks in
// one 64-bit mask per worker so a million-worker tree stays cheap.
const MaxBlocks = 64

// maxRestarts is how many gen-restarts a worker accepts per block before it
// takes the partial.
const maxRestarts = 1

// Spec is the tree shape: Racks leaf ToRs with WorkersPerRack workers each,
// grouped FanOut-per-parent into spine levels until a single root remains.
// With Racks == 1 the ToR itself is the root — the paper's single-router
// testbed.
type Spec struct {
	Racks          int
	WorkersPerRack int
	FanOut         int
}

// Workers is the total simulated worker count.
func (s Spec) Workers() int { return s.Racks * s.WorkersPerRack }

// Levels reports how many router levels the spec builds (1 for a single
// rack, 2 for ToRs + root, 3 for ToRs + spines + root, ...).
func (s Spec) Levels() int {
	if s.Racks <= 1 {
		return 1
	}
	levels, n := 1, s.Racks
	for n > 1 {
		n = (n + s.FanOut - 1) / s.FanOut
		levels++
	}
	return levels
}

// jobID is the one job every tree runs.
const jobID = 1

// Config parameterizes one tree run.
type Config struct {
	Spec
	GradsPerPkt int
	Blocks      int // blocks each worker streams; <= MaxBlocks
	Window      int // outstanding blocks per worker

	LeafExpiry   sim.Time // ToR block expiry; level l uses LeafExpiry * 4^l (ms-rounded, capped 255 ms)
	TimerThreads int      // §5 timer threads per router; default 4

	// Partitions is the requested sim partition count; AutoPlace clamps it
	// to Racks and deals the rack subtrees (ToR router plus its workers)
	// round-robin over the partitions, the spine levels sharing the one
	// with the fewest racks. <= 1 runs everything on a single engine.
	Partitions int

	Seed uint64

	// Chaos knobs. SilentWorkers never send (straggler workers, global
	// worker id = rack*WorkersPerRack + index). SilentRacks silence every
	// worker of a rack (rack failure). UplinkFaults attaches a fault
	// injector to rack r's ToR->spine uplink (spine-link flaps etc.); nil
	// or a nil return leaves the uplink fault-free.
	SilentWorkers map[int]bool
	SilentRacks   map[int]bool
	UplinkFaults  func(rack int) *faults.LinkInjector
}

func (c *Config) applyDefaults() {
	if c.FanOut <= 0 {
		c.FanOut = 16
	}
	if c.GradsPerPkt <= 0 {
		c.GradsPerPkt = 64
	}
	if c.Blocks <= 0 {
		c.Blocks = 2
	}
	if c.Window <= 0 {
		c.Window = c.Blocks
	}
	if c.LeafExpiry <= 0 {
		c.LeafExpiry = sim.Millisecond
	}
	if c.TimerThreads <= 0 {
		c.TimerThreads = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c *Config) validate() error {
	if c.Racks < 1 || c.WorkersPerRack < 1 {
		return fmt.Errorf("tree: need >= 1 rack and >= 1 worker per rack, got %dx%d", c.Racks, c.WorkersPerRack)
	}
	if c.WorkersPerRack > trioml.MaxSources-1 {
		return fmt.Errorf("tree: %d workers per rack exceeds the %d-source job mask", c.WorkersPerRack, trioml.MaxSources-1)
	}
	if c.FanOut > trioml.MaxSources-1 {
		return fmt.Errorf("tree: fan-out %d exceeds the %d-source job mask", c.FanOut, trioml.MaxSources-1)
	}
	if c.Blocks > MaxBlocks {
		return fmt.Errorf("tree: %d blocks exceeds the %d-block worker bitmask", c.Blocks, MaxBlocks)
	}
	if c.Spec.Levels() > 14 {
		return fmt.Errorf("tree: %d levels exceeds the 4-bit age_op level space", c.Spec.Levels())
	}
	return nil
}

// Node is one router of the tree: a leaf ToR (level 0) or a spine.
type Node struct {
	Level    int // 0 = ToR
	Index    int // within its level
	ChildIdx int // index (and source id) within its parent
	Router   *trio.Router
	Agg      *trioml.Aggregator
	Engine   *sim.Engine
	Parent   *Node
	Children []*Node // nil at level 0 (children are workers)

	partition int
	fanIn     int // workers (level 0) or len(Children)
	upPort    int // == fanIn; port toward the parent
}

// Tree is a built multi-rack aggregation hierarchy.
type Tree struct {
	Cfg     Config
	Levels  [][]*Node // Levels[0] = ToRs, last = [root]
	Root    *Node
	Cluster *sim.Cluster // nil single-engine
	eng     *sim.Engine  // partition-0 / single engine
	banks   []*workerBank
	stops   []*pfe.TimerThreads

	// unfinished counts banks that still owe accepts. The serial step loop
	// polls the stop condition per event, so it must be O(1): each bank
	// decrements this once, when its own remaining-accepts count hits zero
	// (atomically — in cluster mode banks complete on partition goroutines).
	unfinished atomic.Int64
}

// expiry returns level l's block expiry, rounded up to a whole millisecond
// (the job record stores milliseconds) and capped at the record's 255 ms.
func (c *Config) expiry(level int) sim.Time {
	e := c.LeafExpiry
	for i := 0; i < level; i++ {
		e *= levelExpiryFactor
	}
	if rem := e % sim.Millisecond; rem != 0 {
		e += sim.Millisecond - rem
	}
	if max := 255 * sim.Millisecond; e > max {
		e = max
	}
	return e
}

// Build wires the tree: routers, aggregation jobs, inter-router links, and
// per-rack worker banks, placed across AutoPlace(cfg.Racks, cfg.Partitions)
// sim partitions. It does not start traffic; call Run.
func Build(cfg Config) (*Tree, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pl := AutoPlace(cfg.Racks, cfg.Partitions)

	t := &Tree{Cfg: cfg}
	if pl.Partitions > 1 {
		t.Cluster = sim.NewCluster(pl.Partitions)
		t.eng = t.Cluster.Engine(0)
	} else {
		t.eng = sim.NewEngine()
	}
	engineAt := func(p int) *sim.Engine {
		if t.Cluster == nil {
			return t.eng
		}
		return t.Cluster.Engine(p)
	}

	// Routers, bottom-up. Construction order (racks ascending, then spine
	// levels) fixes cross-partition channel-key order, which is part of
	// the deterministic merge contract — keep it independent of the
	// partition count.
	pcfg := trioml.RecommendedPFEConfig()
	// A tree node holds at most window+2 live blocks, so the default 4096
	// hash buckets would be pure overhead times thousands of routers.
	pcfg.Hash.Buckets = 256
	newNode := func(level, index, fanIn, part int) *Node {
		eng := engineAt(part)
		pc := pcfg
		pc.NumPorts = fanIn + 1 // child ports plus the uplink
		r := trio.New(eng, trio.Config{NumPFEs: 1, PFE: pc})
		n := &Node{Level: level, Index: index, Router: r, Agg: trioml.New(r.PFE(0)),
			Engine: eng, partition: part, fanIn: fanIn, upPort: fanIn}
		n.Agg.LevelCode = uint8(level + 1)
		return n
	}
	tors := make([]*Node, cfg.Racks)
	for r := range tors {
		tors[r] = newNode(0, r, cfg.WorkersPerRack, pl.Rack(r))
	}
	t.Levels = [][]*Node{tors}
	for len(t.Levels[len(t.Levels)-1]) > 1 {
		children := t.Levels[len(t.Levels)-1]
		level := len(t.Levels)
		var parents []*Node
		for base := 0; base < len(children); base += cfg.FanOut {
			end := base + cfg.FanOut
			if end > len(children) {
				end = len(children)
			}
			p := newNode(level, len(parents), end-base, pl.Spine())
			for i, c := range children[base:end] {
				c.Parent, c.ChildIdx = p, i
			}
			p.Children = children[base:end]
			parents = append(parents, p)
		}
		t.Levels = append(t.Levels, parents)
	}
	t.Root = t.Levels[len(t.Levels)-1][0]

	// Jobs and inter-router cables.
	for _, level := range t.Levels {
		for _, n := range level {
			if err := t.installJob(n); err != nil {
				return nil, err
			}
			if n.Parent != nil {
				t.connect(n)
			}
		}
	}

	// Worker banks, one per rack, colocated with their ToR.
	for r, tor := range tors {
		b := newWorkerBank(t, r, tor)
		t.banks = append(t.banks, b)
		if b.remaining > 0 {
			t.unfinished.Add(1)
		}
	}
	return t, nil
}

// installJob installs node n's aggregation job: sources are its children's
// ids (worker src ids at a ToR, child indices at a spine); results either
// unicast upward (non-root) or multicast to the children ports (root), and
// results arriving from above re-multicast down the same child ports.
func (t *Tree) installJob(n *Node) error {
	cfg := t.Cfg
	jc := trioml.StarJob(jobID, n.fanIn, cfg.GradsPerPkt, cfg.expiry(n.Level))
	jc.BlockCntMax = min(4095, 2*cfg.Window+4)
	jc.ResultSpec = packet.UDPSpec{
		SrcIP: [4]byte{10, uint8(n.Level + 1), uint8(n.Index >> 8), uint8(n.Index)},
		DstIP: [4]byte{224, 0, 1, jobID},
	}
	if n.Parent != nil {
		jc.UpstreamPort = n.upPort
		jc.UpstreamSrcID = uint8(n.ChildIdx)
		jc.DistributePorts, jc.ResultPorts = jc.ResultPorts, nil
	}
	if err := n.Agg.InstallJob(jc); err != nil {
		return fmt.Errorf("tree: level %d node %d: %w", n.Level, n.Index, err)
	}
	return nil
}

// connect joins node n's uplink port to its parent's child port — the
// inter-router analogue of the chassis fabric hop in SetupHierarchy. The
// uplink is built before the downlink, which fixes the cross-partition
// channel keys. When n is a ToR off the spine partition the pair crosses
// partitions and its 500 ns propagation becomes conservative lookahead.
func (t *Tree) connect(n *Node) {
	n.Router.Connect(0, n.upPort, n.Parent.Router, 0, n.ChildIdx, t.uplinkCfg(n), netsim.DefaultLinkConfig())
}

// uplinkCfg builds the ToR->spine (or spine->spine) link config, attaching
// the rack's fault injector at level 0.
func (t *Tree) uplinkCfg(n *Node) netsim.LinkConfig {
	lc := netsim.DefaultLinkConfig()
	if n.Level == 0 && t.Cfg.UplinkFaults != nil {
		lc.Faults = t.Cfg.UplinkFaults(n.Index)
	}
	return lc
}

// Run starts straggler detection at every level and the worker banks, then
// drives the simulation until every live worker has accepted every block,
// or deadline passes. Banks start staggered by one nanosecond per rack so
// identical racks never tie on the spine's inbox merge.
func (t *Tree) Run(deadline sim.Time) {
	cfg := t.Cfg
	for _, level := range t.Levels {
		for _, n := range level {
			t.stops = append(t.stops,
				n.Agg.StartStragglerDetection(cfg.TimerThreads, cfg.expiry(n.Level)))
		}
	}
	for r, b := range t.banks {
		b.eng.At(sim.Time(r)*sim.Nanosecond, b.start)
	}
	if t.Cluster != nil {
		t.Cluster.Run(t.done, deadline)
	} else {
		for !t.done() {
			if !t.eng.Step() || t.eng.Now() > deadline {
				break
			}
		}
	}
	for _, s := range t.stops {
		s.Stop()
	}
	t.stops = nil
}

// done reports whether every live worker accepted every block. The serial
// loop polls it per event and the cluster at every window barrier, so it is
// a single atomic load, maintained by the banks as they complete.
func (t *Tree) done() bool { return t.unfinished.Load() == 0 }
