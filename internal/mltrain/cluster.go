package mltrain

import (
	"fmt"

	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/pisa"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/switchml"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trioml"
)

// System selects the allreduce substrate.
type System int

// The three systems compared in §6.
const (
	SystemTrioML System = iota
	SystemSwitchML
	SystemIdeal // NCCL ring over RDMA, no stragglers (§6.1 "Ideal setup")
)

func (s System) String() string {
	switch s {
	case SystemTrioML:
		return "Trio-ML"
	case SystemSwitchML:
		return "SwitchML"
	case SystemIdeal:
		return "Ideal"
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// ClusterConfig assembles one training run.
type ClusterConfig struct {
	Model  Model
	System System

	GradsPerPacket int     // default 1024 (Trio-ML) / 256 (SwitchML-256)
	Scale          int     // gradient scale factor (DESIGN.md §4); default 64
	StragglerP     float64 // straggling probability p
	Pattern        Pattern // Slow Worker Pattern reading; default SingleVictim
	Seed           uint64

	// DeadWorker, when > 0, marks that worker permanently out of service
	// (it receives results but never computes or sends); the zero value
	// means none, so worker 0 cannot be the dead one — pick any other.
	// Combine with AdvancedMitigation to reproduce §5's permanent-straggler
	// handling.
	DeadWorker int
	// AdvancedMitigation, when non-zero, launches the slow analysis thread
	// (Trio-ML only): sources missing this many aged blocks between
	// analyses are demoted from the job.
	AdvancedMitigation uint64
	AnalyzePeriod      sim.Time // default 100 ms
}

func (cfg *ClusterConfig) defaults() {
	if cfg.DeadWorker == 0 {
		cfg.DeadWorker = -1 // zero value means "none"; use index explicitly
	}
	if cfg.GradsPerPacket == 0 {
		if cfg.System == SystemSwitchML {
			cfg.GradsPerPacket = switchml.Grads256
		} else {
			cfg.GradsPerPacket = 1024
		}
	}
	if cfg.Scale == 0 {
		cfg.Scale = 64
	}
}

// The testbed (§6.1): six workers; Trio-ML keeps up to 4096 blocks in
// flight and ages a block after 10 ms, scanned by 100 timer threads;
// SwitchML's slot pool holds 512 blocks, which also caps its window.
const (
	numWorkers   = 6
	trioWindow   = 4096
	poolSize     = 512
	blockTimeout = 10 * sim.Millisecond
	timerThreads = 100
)

// linkBandwidth is every worker link's line rate before Scale divides it:
// the testbed's 100 Gbps.
const linkBandwidth = 100_000_000_000

// IterationResult is one iteration's outcome.
type IterationResult struct {
	Iter         int
	End          sim.Time // when every worker held the iteration's results
	GradFraction float64  // fraction of gradient signal aggregated (1 = full)
}

// Cluster is a six-worker training testbed instance.
type Cluster struct {
	Eng *sim.Engine
	Cfg ClusterConfig

	workers []*Worker
	recvCnt map[int]int
	iterEnd map[int]sim.Time
	iterFra map[int]float64

	stopTimers []*pfe.TimerThreads

	// TrioAgg / SwitchAgg expose the device application for inspection
	// (whichever matches Cfg.System is non-nil).
	TrioAgg   *trioml.Aggregator
	SwitchAgg *switchml.Aggregator
}

// NewCluster wires a cluster per cfg.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.defaults()
	c := &Cluster{
		Eng: sim.NewEngine(), Cfg: cfg,
		recvCnt: make(map[int]int), iterEnd: make(map[int]sim.Time), iterFra: make(map[int]float64),
	}
	if cfg.System == SystemIdeal {
		return c, nil // analytic path; no devices
	}
	simGrads := cfg.Model.Gradients() / cfg.Scale
	blocks := (simGrads + cfg.GradsPerPacket - 1) / cfg.GradsPerPacket
	lastGrads := simGrads - (blocks-1)*cfg.GradsPerPacket
	window := trioWindow
	if cfg.System == SystemSwitchML {
		window = poolSize // outstanding blocks cannot exceed the slot pool
	}
	scaledBW := linkBandwidth / uint64(cfg.Scale)

	params := WorkerParams{
		JobID: 1, Blocks: blocks, GradsPerPacket: cfg.GradsPerPacket,
		LastBlockGrads: lastGrads, Window: window, ComputeTime: cfg.Model.ComputeTime,
		Spec: packet.UDPSpec{
			SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 100},
			SrcPort: 5000,
		},
	}

	injector := NewInjectorPattern(cfg.StragglerP, numWorkers,
		cfg.Model.TypicalIter(linkBandwidth), cfg.Seed, cfg.Pattern)

	switch cfg.System {
	case SystemTrioML:
		pcfg := trioml.RecommendedPFEConfig()
		pcfg.PortBandwidth = scaledBW
		r := trio.New(c.Eng, trio.Config{NumPFEs: 1, PFE: pcfg})
		agg := trioml.New(r.PFE(0))
		if err := agg.InstallJob(trioml.StarJob(1, numWorkers, cfg.GradsPerPacket, blockTimeout)); err != nil {
			return nil, err
		}
		c.stopTimers = append(c.stopTimers, agg.StartStragglerDetection(timerThreads, blockTimeout))
		if cfg.AdvancedMitigation > 0 {
			c.stopTimers = append(c.stopTimers, agg.StartAdvancedMitigation(trioml.AdvancedConfig{
				AnalyzePeriod:  cfg.AnalyzePeriod,
				EventThreshold: cfg.AdvancedMitigation,
			}))
		}
		c.TrioAgg = agg
		c.buildWorkers(params, injector, func(i int, recv netsim.Receiver) func([]byte) {
			return r.Cable(0, i, linkCfg(scaledBW), linkCfg(scaledBW), recv)
		})
	case SystemSwitchML:
		sw := pisa.New(c.Eng, pisa.Config{PortBandwidth: scaledBW})
		ports := make([]int, numWorkers)
		for i := range ports {
			ports[i] = i
		}
		agg, err := switchml.New(sw, switchml.Config{
			NumWorkers: numWorkers, GradsPerPacket: cfg.GradsPerPacket,
			PoolSize: poolSize, WorkerPorts: ports,
			ResultSpec: packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}},
		})
		if err != nil {
			return nil, err
		}
		c.SwitchAgg = agg
		links := make([]*netsim.Link, numWorkers)
		sw.SetOutput(func(port int, frame []byte, _ sim.Time) {
			if port < len(links) && links[port] != nil {
				links[port].Send(frame)
			}
		})
		c.buildWorkers(params, injector, func(i int, recv netsim.Receiver) func([]byte) {
			up := netsim.NewLink(c.Eng, linkCfg(scaledBW),
				func(frame []byte, _ sim.Time) { sw.Inject(i, frame) })
			links[i] = netsim.NewLink(c.Eng, linkCfg(scaledBW), recv)
			return up.Send
		})
	default:
		return nil, fmt.Errorf("mltrain: unknown system %v", cfg.System)
	}
	return c, nil
}

// linkCfg is every worker link: bw at 500 ns propagation.
func linkCfg(bw uint64) netsim.LinkConfig {
	return netsim.LinkConfig{Bandwidth: bw, Propagation: 500 * sim.Nanosecond}
}

// buildWorkers constructs the worker set; cable wires worker i to its device
// port and returns the worker's transmit function.
func (c *Cluster) buildWorkers(params WorkerParams, injector *Injector,
	cable func(i int, recv netsim.Receiver) (send func([]byte))) {
	for i := 0; i < numWorkers; i++ {
		var w *Worker
		send := cable(i, func(frame []byte, at sim.Time) { w.OnFrame(frame, at) })
		w = NewWorker(c.Eng, i, uint8(i), numWorkers, params, injector, send, c.onIterRecv)
		c.workers = append(c.workers, w)
	}
}

func (c *Cluster) onIterRecv(w *Worker, iter int, at sim.Time, frac float64) {
	c.recvCnt[iter]++
	if at > c.iterEnd[iter] {
		c.iterEnd[iter] = at
	}
	c.iterFra[iter] += frac
}

// Workers exposes the worker set (read-only use).
func (c *Cluster) Workers() []*Worker { return c.workers }

// Run executes the given number of training iterations and returns their
// results in order. The virtual-time cap guards against wedged
// configurations.
func (c *Cluster) Run(iterations int) ([]IterationResult, error) {
	if c.Cfg.System == SystemIdeal {
		return c.runIdeal(iterations), nil
	}
	for i, w := range c.workers {
		if c.Cfg.DeadWorker >= 0 && i == c.Cfg.DeadWorker {
			continue // out of service: receives results, never contributes
		}
		w.Start(iterations)
	}
	typical := c.Cfg.Model.TypicalIter(linkBandwidth)
	deadline := sim.Time(iterations+2)*typical*8 + sim.Second
	last := iterations - 1
	for c.recvCnt[last] < numWorkers {
		if !c.Eng.Step() {
			return nil, fmt.Errorf("mltrain: simulation drained before iteration %d completed (recv=%d)", last, c.recvCnt[last])
		}
		if c.Eng.Now() > deadline {
			return nil, fmt.Errorf("mltrain: deadline exceeded before iteration %d completed (recv=%d, %v)", last, c.recvCnt[last], c.Eng.Now())
		}
	}
	for _, t := range c.stopTimers {
		t.Stop()
	}
	out := make([]IterationResult, iterations)
	for i := 0; i < iterations; i++ {
		out[i] = IterationResult{
			Iter:         i,
			End:          c.iterEnd[i],
			GradFraction: c.iterFra[i] / float64(numWorkers),
		}
	}
	return out, nil
}

// runIdeal models the no-straggler NCCL ring analytically: per iteration,
// compute plus 2(N−1)/N × model bytes at line rate.
func (c *Cluster) runIdeal(iterations int) []IterationResult {
	n := float64(numWorkers)
	ringNs := 2 * (n - 1) / n * float64(c.Cfg.Model.Bytes()) * 8 / float64(linkBandwidth) * float64(sim.Second)
	ring := sim.Time(ringNs)
	out := make([]IterationResult, iterations)
	var t sim.Time
	for i := 0; i < iterations; i++ {
		t += c.Cfg.Model.ComputeTime + ring
		out[i] = IterationResult{Iter: i, End: t, GradFraction: 1}
	}
	return out
}

// AvgIterTime averages iteration durations, skipping the first `skip`
// iterations (warm-up).
func AvgIterTime(res []IterationResult, skip int) sim.Time {
	if len(res) <= skip {
		return 0
	}
	var prev sim.Time
	if skip > 0 {
		prev = res[skip-1].End
	}
	span := res[len(res)-1].End - prev
	return span / sim.Time(len(res)-skip)
}

// AvgGradFraction averages the aggregated-gradient fraction.
func AvgGradFraction(res []IterationResult, skip int) float64 {
	if len(res) <= skip {
		return 1
	}
	var sum float64
	for _, r := range res[skip:] {
		sum += r.GradFraction
	}
	return sum / float64(len(res)-skip)
}
