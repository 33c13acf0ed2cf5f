package harness

import (
	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/mltrain"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trioml"
)

// trioRig is the §6.3 microbenchmark testbed: N servers on one PFE behind
// 100 Gbps links, streaming aggregation blocks with a configurable window.
// Each server is an mltrain.Worker running one iteration with no compute, so
// its Latency is the metric of Figs. 14–16: each block's first-send→result
// round trip. Router and servers share one engine.
type trioRig struct {
	eng     *sim.Engine
	router  *trio.Router
	agg     *trioml.Aggregator
	servers []*mltrain.Worker
	links   []*netsim.Link // per server: its uplink, then its downlink
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

	// links configures server i's uplink and downlink (loss, fault
	// streams); nil cables every server with netsim.DefaultLinkConfig.
	links func(i int) (up, down netsim.LinkConfig)

	// Lossy-fabric hardening, each piece off at its zero value: plan
	// attaches PFE/memory fault streams and makes router ports drop frames
	// that fail their checksum (servers always do); servers resend every
	// unanswered block each retxEvery; the job replays its last `replay`
	// results to retransmits instead of re-opening the block; onResult sees
	// every result a sending server accepts.
	plan      *faults.Plan
	retxEvery sim.Time
	replay    int
	onResult  func(server int, f *packet.Frame)
}

func newTrioRig(cfg rigConfig) *trioRig {
	if cfg.timeout == 0 {
		cfg.timeout = 10 * sim.Millisecond
	}
	if cfg.timerThreads == 0 {
		cfg.timerThreads = 100
	}
	eng := sim.NewEngine()
	r := trio.New(eng, trio.Config{NumPFEs: 1})
	agg := trioml.New(r.PFE(0))
	if err := agg.InstallJob(trioml.StarJob(mltrain.JobID, cfg.servers, cfg.gradsPerPkt, cfg.timeout)); err != nil {
		panic(err)
	}
	if cfg.replay > 0 {
		if err := agg.EnableResultReplay(1, cfg.replay); err != nil {
			panic(err)
		}
	}
	r.Instrument(cfg.obsReg, cfg.trace, cfg.plan)
	rig := &trioRig{eng: eng, router: r, agg: agg, cfg: cfg}
	rx := netsim.NewSink(eng, func(i int, frame []byte, at sim.Time) { rig.servers[i].OnFrame(frame, at) })
	for i := 0; i < cfg.servers; i++ {
		up, down := netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig()
		if cfg.links != nil {
			up, down = cfg.links(i)
		}
		params := mltrain.WorkerParams{
			Blocks: cfg.blocks, GradsPerPacket: cfg.gradsPerPkt, Window: cfg.window,
			RetransmitAfter: cfg.retxEvery,
			Spec: packet.UDPSpec{
				SrcIP: [4]byte{10, 0, 0, byte(i + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
			},
		}
		ul := r.Cable(0, i, up, down, rx, i)
		rig.links = append(rig.links, ul, r.Link(0, i))
		w := mltrain.NewWorker(eng, i, uint8(i), cfg.servers, params, nil, ul.Send, nil)
		if cfg.onResult != nil && !cfg.silent[i] {
			w.OnResult = func(f *packet.Frame) { cfg.onResult(i, f) }
		}
		rig.servers = append(rig.servers, w)
	}
	return rig
}

// run streams all blocks and returns when every sending server finished,
// with timer threads active for straggler detection. Silent servers are never
// started.
func (r *trioRig) run() {
	cfg := r.cfg
	stop := r.agg.StartStragglerDetection(cfg.timerThreads, cfg.timeout)
	for i, w := range r.servers {
		if !cfg.silent[i] {
			w.Start(1)
		}
	}
	deadline := sim.Time(cfg.blocks+2)*4*cfg.timeout + sim.Second
	for !r.allDone() {
		if !r.eng.Step() || r.eng.Now() > deadline {
			break
		}
	}
	stop.Stop()
}

// metrics exposes the engine's self-instrumentation for experiment logging.
func (r *trioRig) metrics() sim.Metrics { return r.eng.Metrics() }

func (r *trioRig) allDone() bool {
	for i, w := range r.servers {
		if !r.cfg.silent[i] && w.ResultsRecv < uint64(r.cfg.blocks) {
			return false
		}
	}
	return true
}
