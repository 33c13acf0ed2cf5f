package harness

import (
	"fmt"
	"hash/fnv"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
)

func init() {
	register(Experiment{
		Name: "chaos",
		Desc: "Chaos sweep: fault type x rate vs recovery time, goodput, and result bit-exactness",
		Run:  runChaos,
	})
}

// chaosTimeout is the block-expiry timeout used by every chaos run; the
// retransmit period is a quarter of it, giving each lost frame several
// repair attempts before §5 aging emits a degraded result.
const (
	chaosTimeout = 2 * sim.Millisecond
	chaosRetx    = chaosTimeout / 4
	chaosBlocks  = 20
	chaosServers = 6
)

// chaosFault is one swept fault family: it maps a rate to a fault plan (and
// a native link-loss probability, which netsim injects without a plan).
type chaosFault struct {
	name string
	mk   func(rate float64) (cfg faults.Config, lossProb float64)
}

// chaosFlapDur scales a fault rate into a link-outage duration: 5% -> 1 ms,
// kept well under the timeout so the post-outage repair (retransmit plus
// aging) stays inside the recovery bound.
func chaosFlapDur(rate float64) sim.Time {
	return sim.Time(rate * float64(20*sim.Millisecond))
}

var chaosFaults = []chaosFault{
	{"loss", func(r float64) (faults.Config, float64) {
		return faults.Config{}, r
	}},
	{"corrupt", func(r float64) (faults.Config, float64) {
		return faults.Config{Link: faults.LinkConfig{CorruptProb: r}}, 0
	}},
	{"dup", func(r float64) (faults.Config, float64) {
		return faults.Config{Link: faults.LinkConfig{DupProb: r}}, 0
	}},
	{"reorder", func(r float64) (faults.Config, float64) {
		return faults.Config{Link: faults.LinkConfig{ReorderProb: r}}, 0
	}},
	{"flap", func(r float64) (faults.Config, float64) {
		return faults.Config{Link: faults.LinkConfig{Flaps: []faults.Window{{Start: 0, End: chaosFlapDur(r)}}}}, 0
	}},
	{"stall", func(r float64) (faults.Config, float64) {
		return faults.Config{PFE: faults.PFEConfig{StallProb: r}}, 0
	}},
	{"bankerr", func(r float64) (faults.Config, float64) {
		return faults.Config{Mem: faults.MemConfig{BankErrorProb: r}}, 0
	}},
	{"combined", func(r float64) (faults.Config, float64) {
		return faults.Config{
			Link: faults.LinkConfig{Flaps: []faults.Window{{Start: 0, End: chaosFlapDur(r)}}},
			PFE:  faults.PFEConfig{StallProb: r},
		}, r
	}},
}

// resultSig summarizes one accepted result for bit-exact comparison against
// the fault-free oracle: the contributing source count plus an FNV-1a hash
// of the raw gradient bytes.
type resultSig struct {
	srcCnt uint8
	hash   uint64
}

// resultKey names one server's accepted result for one block.
type resultKey struct {
	server int
	block  uint32
}

// runChaosRig runs the §6.3 rig hardened for a lossy fabric — fault
// injection on every link and in the PFE, retransmitting checksum-verifying
// servers, the job's served-result replay on (retransmits can race a block's
// served result; the cache answers them with the original frame instead of
// re-opening the block) — and returns it with the signature of every
// accepted result. lossProb is netsim's native per-frame loss, which needs
// no plan.
func runChaosRig(cfg rigConfig, seed uint64, lossProb float64) (*trioRig, map[resultKey]resultSig, error) {
	link := func(id uint64) netsim.LinkConfig {
		lc := netsim.DefaultLinkConfig()
		lc.LossProb = lossProb
		lc.LossSeed = seed*977 + id
		lc.Faults = cfg.plan.Link(id)
		return lc
	}
	cfg.links = func(i int) (up, down netsim.LinkConfig) {
		return link(uint64(2 * i)), link(uint64(2*i + 1))
	}
	sigs := map[resultKey]resultSig{}
	cfg.onResult = func(server int, f *packet.Frame) {
		h := fnv.New64a()
		h.Write(f.Payload)
		sigs[resultKey{server, f.ML.BlockID}] = resultSig{srcCnt: f.ML.SrcCnt, hash: h.Sum64()}
	}
	rig := newTrioRig(cfg)
	rig.run()
	for i, w := range rig.servers {
		if !cfg.silent[i] && w.ResultsRecv != uint64(cfg.blocks) {
			return nil, nil, fmt.Errorf("server %d finished %d/%d blocks", i, w.ResultsRecv, cfg.blocks)
		}
	}
	return rig, sigs, nil
}

// nativeDrops sums netsim's own loss counter across every link.
func nativeDrops(r *trioRig) uint64 {
	var n uint64
	for _, l := range r.links {
		n += l.Dropped
	}
	return n
}

// runChaos sweeps fault type x rate over the §6.3 rig with one silent
// straggler, comparing every accepted result bit-for-bit against a
// fault-free oracle run and checking the §5 recovery bound: every block's
// result lands within 2x the timeout of its first transmission (+1 ms
// grace, as fig14; flap rows extend the bound by the injected outage).
func runChaos(p Params) ([]*Table, error) {
	rates := []float64{0.01, 0.02, 0.05}
	if p.Quick {
		rates = []float64{0.01, 0.05}
	}
	base := rigConfig{
		servers: chaosServers, gradsPerPkt: 1024, blocks: chaosBlocks, window: chaosBlocks,
		timeout: chaosTimeout, retxEvery: chaosRetx, replay: 4 * chaosBlocks,
		silent: map[int]bool{chaosServers - 1: true},
	}

	// Oracle: the same rig and straggler with every fault rate at zero.
	_, oracle, err := runChaosRig(base, p.seed(), 0)
	if err != nil {
		return nil, fmt.Errorf("chaos oracle: %w", err)
	}

	t := &Table{
		Title:   "Chaos: fault injection vs recovery, goodput, and correctness",
		Columns: []string{"Fault", "Rate(%)", "Injected", "MaxRecovery(ms)", "Bound(ms)", "Within", "Goodput(res/ms)", "BitExact"},
		Notes: []string{
			fmt.Sprintf("%d servers, one silent straggler, timeout %.1fms, retransmit every %.2fms, %d blocks.",
				chaosServers, float64(chaosTimeout)/float64(sim.Millisecond), float64(chaosRetx)/float64(sim.Millisecond), chaosBlocks),
			"Recovery: first transmission of a block to its accepted result; bound 2x timeout +1ms grace (+outage for flap rows).",
			"BitExact: every accepted result matches the fault-free oracle byte-for-byte (served-result replay keeps retransmits idempotent).",
			"Host-aggregator and training-cluster injectors are exercised by their packages' fault tests, not this sim rig.",
		},
	}

	var violations []string
	for _, f := range chaosFaults {
		for _, rate := range rates {
			fcfg, loss := f.mk(rate)
			cfg := base
			cfg.plan = faults.NewPlan(p.seed(), fcfg)
			if p.Obs != nil {
				cfg.plan.RegisterObs(p.Obs)
			}
			rig, sigs, err := runChaosRig(cfg, p.seed(), loss)
			if err != nil {
				return nil, fmt.Errorf("chaos %s@%g%%: %w", f.name, rate*100, err)
			}

			bound := 2*cfg.timeout + sim.Millisecond
			if len(fcfg.Link.Flaps) > 0 {
				bound += chaosFlapDur(rate)
			}
			maxRec, goodput := chaosMetrics(rig)
			exact := true
			for k, sig := range sigs {
				exact = exact && sig == oracle[k]
			}
			injected := chaosInjected(f.name, rig, cfg.plan)

			within := "yes"
			if maxRec > bound {
				within = "NO"
				violations = append(violations, fmt.Sprintf("%s@%g%%: recovery %.3fms > bound %.3fms",
					f.name, rate*100, ms(maxRec), ms(bound)))
			}
			exactStr := "yes"
			if !exact {
				exactStr = "NO"
				violations = append(violations, fmt.Sprintf("%s@%g%%: results diverged from oracle", f.name, rate*100))
			}
			t.AddRow(f.name, rate*100, int64(injected), ms(maxRec), ms(bound), within, goodput, exactStr)
			p.logf("chaos: %s rate=%g%% injected=%d maxRec=%.3fms goodput=%.2f exact=%v",
				f.name, rate*100, injected, ms(maxRec), goodput, exact)
		}
	}
	if len(violations) > 0 {
		return nil, fmt.Errorf("chaos: %d bound violation(s): %v", len(violations), violations)
	}
	return []*Table{t}, nil
}

func ms(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }

// chaosMetrics reports the worst first-send-to-result latency across all
// active servers and the goodput in accepted results per virtual ms.
func chaosMetrics(r *trioRig) (maxRec sim.Time, goodput float64) {
	var total uint64
	var span sim.Time
	for i, w := range r.servers {
		if r.cfg.silent[i] {
			continue
		}
		maxRec = max(maxRec, w.Latency.Max)
		span = max(span, w.LastAccept)
		total += w.ResultsRecv
	}
	if span > 0 {
		goodput = float64(total) / ms(span)
	}
	return maxRec, goodput
}

// chaosInjected picks the fault counter(s) relevant to the swept family.
func chaosInjected(name string, r *trioRig, plan *faults.Plan) uint64 {
	st := plan.Stats()
	switch name {
	case "loss":
		return nativeDrops(r)
	case "corrupt":
		return st.LinkCorruptions
	case "dup":
		return st.LinkDuplicates
	case "reorder":
		return st.LinkReorders
	case "flap":
		return st.LinkFlapDrops
	case "stall":
		return st.PPEStalls
	case "bankerr":
		return st.MemBankErrors
	case "combined":
		return nativeDrops(r) + st.LinkFlapDrops + st.PPEStalls
	}
	return 0
}
