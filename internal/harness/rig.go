package harness

import (
	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trioml"
)

// trioRig is the §6.3 microbenchmark testbed: N servers on one PFE behind
// 100 Gbps links, streaming aggregation blocks with a configurable window.
// Router and servers share one engine.
type trioRig struct {
	eng     *sim.Engine
	router  *trio.Router
	agg     *trioml.Aggregator
	clients []*streamClient
	cfg     rigConfig
}

type rigConfig struct {
	servers      int
	gradsPerPkt  int
	blocks       int
	window       int
	timeout      sim.Time
	timerThreads int
	silent       map[int]bool  // servers that never send (stragglers)
	trace        *obs.Trace    // nil: tracing off (the default)
	obsReg       *obs.Registry // nil: metrics off; sweeps rebind func series to the latest rig

	// Design-space knobs (the dse experiment's axes); zero values keep the
	// §6.3 operating point of trioml.RecommendedPFEConfig.
	numPPEs       int // PPEs on the PFE
	rmwEngines    int // shared-memory RMW banks
	sramLatencyNs int // SRAM access latency, nanoseconds

	// links configures server i's uplink and downlink (loss, fault
	// streams); nil cables every server with netsim.DefaultLinkConfig.
	links func(i int) (up, down netsim.LinkConfig)

	// Lossy-fabric hardening, each piece off at its zero value: plan
	// attaches PFE/memory fault streams and makes router ports and servers
	// drop frames that fail their checksum; servers resend every unanswered
	// block each retxEvery; the job replays its last `replay` results to
	// retransmits instead of re-opening the block; onResult sees every
	// accepted result.
	plan      *faults.Plan
	retxEvery sim.Time
	replay    int
	onResult  func(server int, f *packet.Frame)
}

// streamClient is a minimal gradient-streaming server: it keeps `window`
// blocks outstanding and records each block's first-send→result round trip
// (the metric of Figs. 14–16; under retransmission it spans the whole
// repair).
type streamClient struct {
	id     int
	eng    *sim.Engine
	send   func([]byte)
	cfg    rigConfig
	next   int
	done   int
	sentAt map[uint32]sim.Time
	lat    sim.Sample
	maxLat sim.Time
	doneAt sim.Time
	retxH  sim.Handle

	grads []int32      // send-side scratch; BuildTrioML copies it out
	frame packet.Frame // receive-side decode scratch
}

func newTrioRig(cfg rigConfig) *trioRig {
	if cfg.timeout == 0 {
		cfg.timeout = 10 * sim.Millisecond
	}
	if cfg.timerThreads == 0 {
		cfg.timerThreads = 100
	}
	eng := sim.NewEngine()
	pcfg := trioml.RecommendedPFEConfig()
	if cfg.numPPEs > 0 {
		pcfg.NumPPEs = cfg.numPPEs
	}
	if cfg.rmwEngines > 0 {
		pcfg.Mem.NumRMWEngines = cfg.rmwEngines
	}
	if cfg.sramLatencyNs > 0 {
		pcfg.Mem.SRAMLatency = sim.Time(cfg.sramLatencyNs) * sim.Nanosecond
	}
	r := trio.New(eng, trio.Config{NumPFEs: 1, PFE: pcfg})
	agg := trioml.New(r.PFE(0))
	if err := agg.InstallJob(trioml.StarJob(1, cfg.servers, cfg.gradsPerPkt, cfg.timeout)); err != nil {
		panic(err)
	}
	if cfg.replay > 0 {
		if err := agg.EnableResultReplay(1, cfg.replay); err != nil {
			panic(err)
		}
	}
	r.Instrument(cfg.obsReg, cfg.trace, cfg.plan)
	rig := &trioRig{eng: eng, router: r, agg: agg, cfg: cfg}
	for i := 0; i < cfg.servers; i++ {
		up, down := netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig()
		if cfg.links != nil {
			up, down = cfg.links(i)
		}
		c := &streamClient{id: i, eng: eng, cfg: cfg, sentAt: make(map[uint32]sim.Time)}
		c.send = r.Cable(0, i, up, down, c.onFrame)
		rig.clients = append(rig.clients, c)
	}
	return rig
}

// run streams all blocks and returns when every client finished, with timer
// threads active for straggler detection.
func (r *trioRig) run() {
	cfg := r.cfg
	stop := r.agg.StartStragglerDetection(cfg.timerThreads, cfg.timeout)
	for _, c := range r.clients {
		if !cfg.silent[c.id] {
			c.start()
		}
	}
	deadline := sim.Time(cfg.blocks+2)*4*cfg.timeout + sim.Second
	for !r.allDone(cfg) {
		if !r.eng.Step() || r.eng.Now() > deadline {
			break
		}
	}
	for _, c := range r.clients {
		c.retxH.Stop()
	}
	stop.Stop()
}

// metrics exposes the engine's self-instrumentation for experiment logging.
func (r *trioRig) metrics() sim.Metrics { return r.eng.Metrics() }

func (r *trioRig) allDone(cfg rigConfig) bool {
	for _, c := range r.clients {
		if cfg.silent[c.id] {
			continue
		}
		if c.done < cfg.blocks {
			return false
		}
	}
	return true
}

func (c *streamClient) start() {
	c.pump()
	if c.cfg.retxEvery > 0 {
		c.retxH = c.eng.Every(c.cfg.retxEvery, c.cfg.retxEvery, c.retxTick)
	}
}

func (c *streamClient) pump() {
	for c.next-c.done < c.cfg.window && c.next < c.cfg.blocks {
		b := uint32(c.next)
		c.next++
		c.sentAt[b] = c.eng.Now()
		c.sendBlock(b)
	}
}

// retxTick resends every sent-but-unanswered block in block order (map
// iteration would randomize event order and break run determinism). The
// first-send timestamp is preserved: recovery spans the whole repair.
func (c *streamClient) retxTick() {
	if c.done >= c.cfg.blocks {
		c.retxH.Stop()
		return
	}
	for b := 0; b < c.next; b++ {
		if _, out := c.sentAt[uint32(b)]; out {
			c.sendBlock(uint32(b))
		}
	}
}

func (c *streamClient) sendBlock(b uint32) {
	if c.grads == nil {
		c.grads = make([]int32, c.cfg.gradsPerPkt)
	}
	grads := c.grads
	for i := range grads {
		grads[i] = int32(c.id + int(b) + i)
	}
	c.send(packet.BuildTrioML(packet.UDPSpec{
		SrcIP: [4]byte{10, 0, 0, byte(c.id + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
	}, packet.TrioML{JobID: 1, BlockID: b, SrcID: uint8(c.id), GenID: 1}, grads))
}

func (c *streamClient) onFrame(frame []byte, at sim.Time) {
	f := &c.frame
	if err := packet.DecodeInto(f, frame); err != nil || !f.IsTrioML() {
		return
	}
	if c.cfg.plan != nil && !f.VerifyUDPChecksum() {
		return // corrupted on the downlink: behaves as loss
	}
	sent, ok := c.sentAt[f.ML.BlockID]
	if !ok {
		return // duplicate or replayed result; first valid copy won
	}
	delete(c.sentAt, f.ML.BlockID)
	lat := at - sent
	c.lat.Add(float64(lat) / float64(sim.Microsecond))
	if lat > c.maxLat {
		c.maxLat = lat
	}
	if c.cfg.onResult != nil {
		c.cfg.onResult(c.id, f)
	}
	c.done++
	c.doneAt = at
	c.pump()
}
