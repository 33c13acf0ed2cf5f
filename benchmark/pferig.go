package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trioml"
)

// pfeSpec sizes a one-PFE rig: workers behind 100 Gbps links streaming
// aggregation blocks closed-loop, the §6.3 testbed (Figs. 15 and 16).
type pfeSpec struct {
	workers int
	grads   int // gradients per packet
	window  int // blocks each worker keeps outstanding
	blocks  int // blocks each worker streams per repetition
	timers  int // §5 timer threads (native aggregator only)
	timeout sim.Time
	mcagg   bool // run the microcode program instead of the native aggregator
}

// mcaggEgress is the PFE port the microcode program forwards its single
// Result out of; the benchmark's sink there fans it back to every worker.
const mcaggEgress = 15

type pfeRunner struct {
	spec pfeSpec
	base [][]int32 // per worker: seeded gradients, lane 0 additionally carries the block id
	want []byte    // wire bytes of the per-lane sums over workers (lane 0 for block 0)
	sum0 int32     // lane 0 of that sum
}

func newPFERunner(spec pfeSpec, seed uint64) *pfeRunner {
	r := &pfeRunner{spec: spec}
	rng := rand.New(rand.NewPCG(seed, 0x7072696f))
	sums := make([]int32, spec.grads)
	for w := 0; w < spec.workers; w++ {
		g := make([]int32, spec.grads)
		for i := range g {
			g[i] = int32(rng.Uint32()>>12) - 1<<19
			sums[i] += g[i]
		}
		r.base = append(r.base, g)
	}
	r.want = make([]byte, 4*spec.grads)
	packet.PutGradients(r.want, sums)
	r.sum0 = sums[0]
	return r
}

// pfeRig is one repetition's freshly built simulator instance.
type pfeRig struct {
	run     *pfeRunner
	tr      *tracer
	eng     *sim.Engine
	router  *trio.Router
	agg     *trioml.Aggregator // nil under mcagg
	mc      *trioml.MCAgg      // nil under the native aggregator
	clients []*pfeClient
	links   []*netsim.Link
	owed    int // results still owed to clients; the drive loop stops at 0
}

// pfeClient keeps `window` blocks outstanding and sends the next only when a
// result returns — how a data-parallel trainer drives an aggregator.
type pfeClient struct {
	rig    *pfeRig
	id     int
	up     *netsim.Link
	next   int
	out    int        // blocks outstanding
	sentAt []sim.Time // per block; -1 once its result arrived
	lat    []sim.Time
	failed int
	first  sim.Time // first send
	last   sim.Time // last result
	grads  []int32  // send-side scratch; BuildTrioML copies it out
	frame  packet.Frame
	lane0  [4]byte
}

func (r *pfeRunner) build(tr *tracer) (*pfeRig, error) {
	spec := r.spec
	rig := &pfeRig{run: r, tr: tr, eng: sim.NewEngine()}
	rig.router = trio.New(rig.eng, trio.Config{NumPFEs: 1, PFE: trioml.RecommendedPFEConfig()})
	ports := make([]int, spec.workers)
	srcs := make([]uint8, spec.workers)
	for i := range ports {
		ports[i], srcs[i] = i, uint8(i)
	}
	if spec.mcagg {
		slots := 1
		for slots < 2*spec.window {
			slots *= 2
		}
		mc, err := trioml.InstallMCAgg(rig.router.PFE(0),
			trioml.MCAggConfig{Sources: spec.workers, Slots: slots, Grads: spec.grads}, mcaggEgress)
		if err != nil {
			return nil, err
		}
		rig.mc = mc
	} else {
		rig.agg = trioml.New(rig.router.PFE(0))
		if err := rig.agg.InstallJob(trioml.JobConfig{
			JobID: 1, Sources: srcs, ResultPorts: ports, UpstreamPort: -1,
			BlockGradMax: spec.grads, BlockExpiry: spec.timeout,
			ResultSpec: packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}},
		}); err != nil {
			return nil, err
		}
	}
	downs := make([]*netsim.Link, spec.workers)
	for i := 0; i < spec.workers; i++ {
		i := i
		c := &pfeClient{rig: rig, id: i, sentAt: make([]sim.Time, spec.blocks),
			lat: make([]sim.Time, 0, spec.blocks), grads: make([]int32, spec.grads)}
		copy(c.grads, r.base[i])
		c.up = netsim.NewLink(rig.eng, netsim.DefaultLinkConfig(), func(f []byte, _ sim.Time) {
			tr.begin(spInject, uint32(i))
			rig.router.Inject(0, i, uint64(i), f)
			tr.end()
		})
		downs[i] = netsim.NewLink(rig.eng, netsim.DefaultLinkConfig(), c.onFrame)
		rig.clients = append(rig.clients, c)
		rig.links = append(rig.links, c.up, downs[i])
	}
	send := func(l *netsim.Link, f []byte) {
		tr.begin(spLinkSend, 0)
		l.Send(f)
		tr.end()
	}
	if spec.mcagg {
		rig.router.AttachExternal(0, mcaggEgress, func(_ int, f []byte, _ sim.Time) {
			for _, d := range downs {
				send(d, f)
			}
		})
	} else {
		for i, d := range downs {
			d := d
			rig.router.AttachExternal(0, i, func(_ int, f []byte, _ sim.Time) { send(d, f) })
		}
	}
	rig.owed = spec.workers * spec.blocks
	return rig, nil
}

// drive opens every window and steps the engine until all results are in.
func (rig *pfeRig) drive() {
	spec := rig.run.spec
	var stop interface{ Stop() }
	if rig.agg != nil && spec.timers > 0 {
		stop = rig.agg.StartStragglerDetection(spec.timers, spec.timeout)
	}
	for _, c := range rig.clients {
		c.first = rig.eng.Now()
		c.pump()
	}
	deadline := sim.Time(spec.blocks+2)*4*spec.timeout + sim.Second
	for rig.owed > 0 {
		if !rig.eng.Step() || rig.eng.Now() > deadline {
			break
		}
	}
	if stop != nil {
		stop.Stop()
	}
}

func (c *pfeClient) pump() {
	spec := c.rig.run.spec
	tr := c.rig.tr
	for c.out < spec.window && c.next < spec.blocks {
		b := c.next
		c.next++
		c.out++
		c.sentAt[b] = c.rig.eng.Now()
		c.grads[0] = c.rig.run.base[c.id][0] + int32(b)
		tr.begin(spBuild, uint32(b))
		f := packet.BuildTrioML(packet.UDPSpec{
			SrcIP: [4]byte{10, 0, 0, byte(c.id + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
		}, packet.TrioML{JobID: 1, BlockID: uint32(b), SrcID: uint8(c.id), GenID: 1}, c.grads)
		tr.end()
		tr.begin(spLinkSend, uint32(b))
		c.up.Send(f)
		tr.end()
	}
}

// onFrame accepts one result: it must be a complete (not degraded) sum of
// all workers for a block this client still waits on, byte-equal to the
// closed form. Anything else is a failed operation.
func (c *pfeClient) onFrame(raw []byte, at sim.Time) {
	spec := c.rig.run.spec
	tr := c.rig.tr
	tr.begin(spDecode, 0)
	err := packet.DecodeInto(&c.frame, raw)
	tr.end()
	if err != nil || !c.frame.IsTrioML() {
		c.failed++
		return
	}
	h := c.frame.ML
	b := int(h.BlockID)
	if b >= spec.blocks || c.sentAt[b] < 0 {
		c.failed++ // unknown block, or a second result for one already accepted
		return
	}
	tr.begin(spVerify, h.BlockID)
	packet.PutGradients(c.lane0[:], []int32{c.rig.run.sum0 + int32(spec.workers*b)})
	p := c.frame.Payload
	ok := !h.Degraded && int(h.SrcCnt) == spec.workers && len(p) == len(c.rig.run.want) &&
		bytes.Equal(p[:4], c.lane0[:]) && bytes.Equal(p[4:], c.rig.run.want[4:])
	tr.end()
	if !ok {
		c.failed++
	}
	c.lat = append(c.lat, at-c.sentAt[b])
	c.sentAt[b] = -1
	c.out--
	c.last = at
	c.rig.owed--
	c.pump()
}

// rep builds a fresh rig, drives it once and gathers its figures.
func (r *pfeRunner) rep(trs []*tracer) (*rep, error) {
	spec, tr := r.spec, first(trs)
	out := &rep{}
	tr.begin(spSetup, 0)
	t0 := time.Now()
	rig, err := r.build(tr)
	out.setup = time.Since(t0)
	tr.end()
	if err != nil {
		return nil, err
	}
	out.host = measure(func() {
		tr.begin(spRun, 0)
		rig.drive()
		tr.end()
	})

	var lats []sim.Time
	var begin, end sim.Time // first send and last result over all clients
	var results int
	for i, c := range rig.clients {
		out.failed += c.failed + (spec.blocks - len(c.lat)) // wrong + missing
		results += len(c.lat)
		lats = append(lats, c.lat...)
		if i == 0 || c.first < begin {
			begin = c.first
		}
		if c.last > end {
			end = c.last
		}
	}
	out.ops = spec.workers * spec.blocks
	out.pkts = uint64(out.ops + results)
	out.payload = uint64(out.ops) * uint64(4*spec.grads)
	slices.Sort(lats)
	var latSum sim.Time
	for _, l := range lats {
		latSum += l
	}
	out.sim = map[string]float64{}
	if len(lats) > 0 && end > begin {
		out.sim["virt.latency_us_p50"] = nearestRank(lats, 50).Microseconds()
		out.sim["virt.latency_us_p99"] = nearestRank(lats, 99).Microseconds()
		out.sim["virt.goodput_gbps"] = float64(out.payload) * 8 / (end - begin).Seconds() / 1e9
	}

	p := rig.router.PFE(0)
	em, ps, engines := rig.eng.Metrics(), p.Stats(), p.Mem.Stats()
	var frames uint64
	for _, l := range rig.links {
		frames += l.Frames
	}
	c := map[string]float64{
		"sim.events_executed":   float64(em.Executed),
		"sim.peak_pending":      float64(em.PeakPending),
		"sim.heap_insert_share": ratio(float64(em.HeapInserts), float64(em.HeapInserts+em.WheelInserts)),
		"netsim.frames":         float64(frames),
	}
	addPFECounts(c, p)
	grads := float64(out.ops * spec.grads)
	digest := fmt.Sprintf("%+v|%v|%+v|%+v|%v|%d|%d", em, rig.eng.Now(), ps, engines, latSum, frames, results)
	if rig.agg != nil {
		as := rig.agg.Stats()
		c["trioml.grads_aggregated"] = float64(as.GradsAggregated)
		c["trioml.blocks_completed"] = float64(as.BlocksCompleted)
		c["trioml.blocks_degraded"] = float64(as.BlocksDegraded)
		c["trioml.duplicates"] = float64(as.Duplicates)
		c["trioml.timer_scan_records"] = float64(as.TimerScanRecords)
		c["trioml.instr_per_grad"] = ratio(float64(ps.Instructions), float64(as.GradsAggregated))
		digest += fmt.Sprintf("|%+v", as)
		if as.BlocksDegraded != 0 || as.Duplicates != 0 {
			out.note("aggregator reported %d degraded blocks and %d duplicates on a fault-free run", as.BlocksDegraded, as.Duplicates)
			out.failed = max(out.failed, 1)
		}
	} else {
		cm := rig.mc.App.Compiled()
		c["microcode.instr_per_pkt"] = ratio(float64(ps.Instructions), float64(ps.Dispatched))
		c["microcode.instr_per_grad"] = ratio(float64(ps.Instructions), grads)
		c["microcode.static_instrs"] = float64(cm.Len())
		c["microcode.fused"] = float64(cm.Fused())
		digest += fmt.Sprintf("|%d", rig.mc.App.Errors)
		if rig.mc.App.Errors != 0 {
			out.note("microcode threads faulted: %d, last: %v", rig.mc.App.Errors, rig.mc.App.LastError)
			out.failed = max(out.failed, 1)
		}
	}
	out.counts = c
	out.digest = hash64(digest)
	if out.failed > 0 {
		out.note("%d of %d blocks wrong or missing", out.failed, out.ops)
	}
	return out, nil
}

// addPFECounts adds one PFE's public counters to c: sums for activity,
// maxima for the high-water marks, so a tree can fold all its routers in.
func addPFECounts(c map[string]float64, p *pfe.PFE) {
	ps := p.Stats()
	c["trio.pfe.dispatched"] += float64(ps.Dispatched)
	c["trio.pfe.instructions"] += float64(ps.Instructions)
	c["trio.pfe.timer_firings"] += float64(ps.TimerFirings)
	c["trio.pfe.max_queued"] = max(c["trio.pfe.max_queued"], float64(ps.MaxQueued))
	c["trio.pfe.peak_busy_threads"] = max(c["trio.pfe.peak_busy_threads"], float64(ps.PeakBusy))
	c["trio.hasheng.ops"] += float64(p.Hash.Lookups + p.Hash.Inserts + p.Hash.Deletes)
	c["trio.hasheng.scanned"] += float64(p.Hash.Scanned)
	for _, e := range p.Mem.Stats() {
		c["trio.smem.rmw_ops"] += float64(e.Ops)
		c["trio.smem.backlogged"] += float64(e.Backlogged)
		c["trio.smem.max_queueing_ns"] = max(c["trio.smem.max_queueing_ns"], float64(e.MaxQueueing))
	}
}
