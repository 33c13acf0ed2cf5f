package trioml

import (
	"slices"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trio/smem"
)

// Advanced straggler mitigation (§5, final paragraph): alongside the
// frequent timer threads that age blocks out, a second, less frequent
// thread class analyzes per-source straggler-event counts to distinguish
// temporary stragglers (mitigated block by block) from permanent ones (out
// of service). A source classified permanent is demoted from the job — its
// bit is cleared from the job record's source mask and src_cnt drops — so
// subsequent blocks complete without waiting for it at all, and a
// notification packet tells the workers. This removes the per-block timeout
// penalty that a dead worker would otherwise impose on every iteration.

// NotifyDemoted is the age_op value of a demotion notification packet.
const NotifyDemoted = 2

// analyzePeriod is the slow thread's interval: "another type happens less
// frequently" (§5) than the timer threads' 10 ms block timeout.
const analyzePeriod = 250 * sim.Millisecond

// AdvancedConfig parameterizes the analysis threads.
type AdvancedConfig struct {
	// EventThreshold demotes a source once it has missed this many aged
	// blocks since the previous analysis (default 8).
	EventThreshold uint64
}

// advancedState tracks the per-job analysis bookkeeping.
type advancedState struct {
	cfg      AdvancedConfig
	evBase   map[uint8]uint64             // job -> event-counter slab (MaxSources × 16 B)
	snapshot map[uint8][MaxSources]uint64 // counts at the previous analysis
}

// StartAdvancedMitigation provisions per-source straggler-event counters for
// every installed job and launches the slow analysis thread. Call it after
// the jobs are installed and alongside StartStragglerDetection. The thread
// first runs at once, then every 250 ms. It returns the thread's cancellable
// handle set.
func (a *Aggregator) StartAdvancedMitigation(cfg AdvancedConfig) *pfe.TimerThreads {
	if cfg.EventThreshold == 0 {
		cfg.EventThreshold = 8
	}
	st := &advancedState{
		cfg:      cfg,
		evBase:   make(map[uint8]uint64),
		snapshot: make(map[uint8][MaxSources]uint64),
	}
	for jobID := range a.jobs {
		st.evBase[jobID] = a.pfe.Mem.Alloc(smem.TierSRAM, MaxSources*16)
	}
	a.advanced = st
	return a.pfe.StartTimerThreads(1, analyzePeriod, func(ctx *pfe.Ctx, _ int) {
		a.analyze(ctx, st)
	})
}

// recordStragglerEvents charges one event per expected-but-missing source of
// an aged block (runs on the fast timer-thread path).
func (a *Aggregator) recordStragglerEvents(ctx *pfe.Ctx, jobID uint8, job JobRecord, rec BlockRecord) {
	if a.advanced == nil {
		return
	}
	base, ok := a.advanced.evBase[jobID]
	if !ok {
		return
	}
	for s := 0; s < MaxSources; s++ {
		if job.SrcMask.Has(uint8(s)) && !rec.RcvdMask.Has(uint8(s)) {
			ctx.CounterInc(base+uint64(s)*16, 1)
		}
	}
}

// analyze is the slow thread body: compare each source's event counter with
// the previous snapshot and demote sources past the threshold.
func (a *Aggregator) analyze(ctx *pfe.Ctx, st *advancedState) {
	ctx.ChargeInstr(20)
	for jobID, js := range a.jobs {
		base, ok := st.evBase[jobID]
		if !ok {
			continue
		}
		prev := st.snapshot[jobID]
		var cur [MaxSources]uint64
		for _, src := range js.cfg.Sources {
			events, _ := a.pfe.Mem.Counter(base + uint64(src)*16)
			cur[src] = events
			if !js.core.Member(src) {
				continue // demoted
			}
			if events-prev[src] >= st.cfg.EventThreshold {
				a.demoteSource(ctx, jobID, js, src)
			}
		}
		st.snapshot[jobID] = cur
	}
}

// demoteSource removes a permanent straggler from the job's source set and
// notifies the workers.
func (a *Aggregator) demoteSource(ctx *pfe.Ctx, jobID uint8, js *jobState, src uint8) {
	jobAddr, ok := ctx.HashLookup(Key(jobID, JobBlockID))
	if !ok {
		return
	}
	ctx.MemReadInto(jobAddr, a.rec[:])
	job := decodeJob(a.rec[:])
	if !job.SrcMask.Has(src) {
		return
	}
	job.SrcMask.Clear(src)
	if job.SrcCnt > 0 {
		job.SrcCnt--
	}
	a.writeJob(ctx, jobAddr, job)
	js.core.Demote(src)
	a.stats.SourcesDemoted++

	// Notify the workers (§5: "sends notification to all other workers").
	hdr := packet.TrioML{
		JobID: jobID, BlockID: JobBlockID - 1, AgeOp: NotifyDemoted,
		SrcID: ResultSrcID, SrcCnt: src,
	}
	frame := packet.BuildTrioML(js.cfg.ResultSpec, hdr, nil)
	ports := js.cfg.ResultPorts
	if js.cfg.UpstreamPort >= 0 {
		ports = js.cfg.DistributePorts
	}
	ctx.Multicast(ports, frame)
	if a.OnDemotion != nil {
		a.OnDemotion(jobID, src, ctx.Now())
	}
}

// Demoted reports whether a source is currently demoted from a job.
func (a *Aggregator) Demoted(jobID, src uint8) bool {
	js := a.jobs[jobID]
	return js != nil && slices.Contains(js.cfg.Sources, src) && !js.core.Member(src)
}
