package harness

import (
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

	// Design-space knobs (internal/dse sweeps); zero values keep the §6.3
	// operating point of trioml.RecommendedPFEConfig.
	numPPEs       int     // PPEs on the PFE
	threadsPerPPE int     // threads per PPE
	rmwEngines    int     // shared-memory RMW banks
	sramLatencyNs int     // SRAM access latency, nanoseconds
	dramLatencyNs int     // DRAM access latency, nanoseconds
	linkLoss      float64 // per-frame loss probability on each uplink
	lossSeed      uint64  // seeds the per-uplink drop streams
}

// streamClient is a minimal gradient-streaming server: it keeps `window`
// blocks outstanding and records the send→result round trip per block (the
// metric of Figs. 14–16).
type streamClient struct {
	id     int
	eng    *sim.Engine
	send   func([]byte)
	cfg    rigConfig
	next   int
	done   int
	sentAt map[uint32]sim.Time
	lat    sim.Sample
	doneAt sim.Time

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
	if cfg.threadsPerPPE > 0 {
		pcfg.ThreadsPerPPE = cfg.threadsPerPPE
	}
	if cfg.rmwEngines > 0 {
		pcfg.Mem.NumRMWEngines = cfg.rmwEngines
	}
	if cfg.sramLatencyNs > 0 {
		pcfg.Mem.SRAMLatency = sim.Time(cfg.sramLatencyNs) * sim.Nanosecond
	}
	if cfg.dramLatencyNs > 0 {
		pcfg.Mem.DRAMLatency = sim.Time(cfg.dramLatencyNs) * sim.Nanosecond
	}
	r := trio.New(eng, trio.Config{NumPFEs: 1, PFE: pcfg})
	agg := trioml.New(r.PFE(0))
	ports := make([]int, cfg.servers)
	srcs := make([]uint8, cfg.servers)
	for i := range ports {
		ports[i], srcs[i] = i, uint8(i)
	}
	if err := agg.InstallJob(trioml.JobConfig{
		JobID: 1, Sources: srcs, ResultPorts: ports, UpstreamPort: -1,
		BlockGradMax: cfg.gradsPerPkt, BlockExpiry: cfg.timeout,
		ResultSpec: packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}},
	}); err != nil {
		panic(err)
	}
	rig := &trioRig{eng: eng, router: r, agg: agg, cfg: cfg}
	r.PFE(0).SetTrace(cfg.trace)
	if cfg.obsReg != nil {
		eng.RegisterObs(cfg.obsReg)
		r.PFE(0).RegisterObs(cfg.obsReg)
		r.PFE(0).Mem.RegisterObs(cfg.obsReg)
	}
	for i := 0; i < cfg.servers; i++ {
		i := i
		upCfg := netsim.DefaultLinkConfig()
		if cfg.linkLoss > 0 {
			// Loss on the worker→router direction only: dropped
			// contributions are repaired by §5 aging (degraded results),
			// so lossy sweeps still complete every block.
			upCfg.LossProb = cfg.linkLoss
			upCfg.LossSeed = cfg.lossSeed + uint64(i)
		}
		up := netsim.NewLink(eng, upCfg, func(f []byte, _ sim.Time) {
			r.Inject(0, i, uint64(i), f)
		})
		c := &streamClient{id: i, eng: eng, cfg: cfg, sentAt: make(map[uint32]sim.Time),
			send: func(f []byte) { up.Send(f) }}
		down := netsim.NewLink(eng, netsim.DefaultLinkConfig(), c.onFrame)
		r.AttachExternal(0, i, func(_ int, f []byte, _ sim.Time) { down.Send(f) })
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

func (c *streamClient) start() { c.pump() }

func (c *streamClient) pump() {
	for c.next-c.done < c.cfg.window && c.next < c.cfg.blocks {
		b := uint32(c.next)
		c.next++
		c.sentAt[b] = c.eng.Now()
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
}

func (c *streamClient) onFrame(frame []byte, at sim.Time) {
	f := &c.frame
	if err := packet.DecodeInto(f, frame); err != nil || !f.IsTrioML() {
		return
	}
	sent, ok := c.sentAt[f.ML.BlockID]
	if !ok {
		return
	}
	delete(c.sentAt, f.ML.BlockID)
	c.lat.Add(float64(at-sent) / float64(sim.Microsecond))
	c.done++
	c.doneAt = at
	c.pump()
}
