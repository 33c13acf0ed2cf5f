// Package faults is the deterministic fault-injection subsystem: a single
// seed-driven Plan hands out per-component injectors for the failure modes
// §7 leaves as future work (transient loss is already native to netsim) —
// frame corruption, duplication, reordering and link flaps on links, PPE
// thread stalls and RMW bank errors inside a PFE, recv drops and table
// crashes in the host aggregator.
//
// Design rules, mirroring internal/obs:
//
//   - Nil-gated: every consumer holds a possibly-nil injector pointer and
//     pays one predictable branch when faults are off. A Plan whose config
//     leaves a layer untouched returns nil injectors for that layer, so the
//     no-fault fast paths are bit-identical to a build without this package.
//   - Deterministic: all randomness flows through sim.RNG streams derived
//     from the Plan seed plus a fixed per-component stream id. Two runs with
//     the same seed and config observe the same fault schedule; components
//     draw from disjoint streams so adding a fault type to one layer does
//     not shift another layer's schedule. Because each injector owns its
//     stream outright (keyed by component id, never by engine or goroutine),
//     schedules are also partition-pure: moving a link or PFE onto another
//     sim.Cluster partition relocates its stream untouched, which is what
//     keeps partitioned runs bit-identical to P=1 at the same seed.
//   - Zero allocs on the decision path: injectors draw and count, nothing
//     more. The only allocation faults ever introduce is the defensive copy
//     a corrupted frame needs (the original bytes may be aliased elsewhere).
//
// Counters are atomics so the wall-clock hostagg server can share a Plan
// with single-threaded simulation components.
package faults

import (
	"sync/atomic"

	"github.com/trioml/triogo/internal/sim"
)

// Stream ids: each injector family draws from its own PCG stream so fault
// schedules are independent across layers. Link, PFE and memory injectors
// add their caller-supplied index on top of the base.
const (
	streamLinkBase uint64 = 0xFA << 32
	streamPPE      uint64 = 0xFB << 32
	streamMem      uint64 = 0xFC << 32
	streamHostagg  uint64 = 0xFD << 32
)

// Window is one timed fault interval [Start, End) in virtual time.
type Window struct {
	Start, End sim.Time
}

// LinkConfig selects per-link fault processes. Probabilities are per frame;
// draws happen after serialization (the sender spent the bandwidth), like
// netsim's native LossProb.
type LinkConfig struct {
	CorruptProb float64  // flip one uniformly-chosen bit in the frame
	DupProb     float64  // deliver a second copy dupDelay later
	ReorderProb float64  // delay delivery by an extra reorderDelay
	Flaps       []Window // link-down windows: every frame sent inside one is lost
}

// How late a duplicated frame's second copy and a reordered frame arrive.
const (
	dupDelay     = sim.Microsecond
	reorderDelay = 5 * sim.Microsecond
)

func (c LinkConfig) enabled() bool {
	return c.CorruptProb > 0 || c.DupProb > 0 || c.ReorderProb > 0 || len(c.Flaps) > 0
}

// PFEConfig selects PPE thread-stall injection: each work item (packet or
// timer firing) stalls with StallProb for a duration uniform in
// [stallMin, stallMax].
type PFEConfig struct {
	StallProb float64
}

// The range of an injected PPE stall, and what a bank error costs the RMW
// engine that retries it.
const (
	stallMin    = 10 * sim.Microsecond
	stallMax    = 100 * sim.Microsecond
	retryCycles = 64
)

// MemConfig selects RMW bank-error injection: each engine request hits a
// detected-and-retried ECC error with BankErrorProb, costing retryCycles
// extra engine cycles. Data is never corrupted (the hardware model is
// detect-and-replay), so bank errors perturb timing only.
type MemConfig struct {
	BankErrorProb float64
}

// HostaggConfig selects host-aggregator injection, applied under the block
// table's lock from one stream.
type HostaggConfig struct {
	RecvDropProb float64 // drop a contribution after parsing (ingress loss)
	CrashEvery   uint64  // wipe the table's open blocks every N contributions (0: never)
}

// Config assembles one Plan's fault selection across every layer.
type Config struct {
	Link    LinkConfig
	PFE     PFEConfig
	Mem     MemConfig
	Hostagg HostaggConfig
}

// Stats is a snapshot of every injected-fault counter.
type Stats struct {
	LinkFlapDrops    uint64
	LinkCorruptions  uint64
	LinkDuplicates   uint64
	LinkReorders     uint64
	PPEStalls        uint64
	PPEStallNs       uint64
	MemBankErrors    uint64
	HostaggRecvDrops uint64
	HostaggCrashes   uint64
}

// Plan is one deterministic fault schedule: a seed, a config, and shared
// counters. Injector factories return nil when their layer's config is
// inert, so consumers stay on the no-fault fast path.
type Plan struct {
	seed uint64
	cfg  Config

	linkFlapDrops    atomic.Uint64
	linkCorruptions  atomic.Uint64
	linkDuplicates   atomic.Uint64
	linkReorders     atomic.Uint64
	ppeStalls        atomic.Uint64
	ppeStallNs       atomic.Uint64
	memBankErrors    atomic.Uint64
	hostaggRecvDrops atomic.Uint64
	hostaggCrashes   atomic.Uint64
}

// NewPlan builds a fault plan.
func NewPlan(seed uint64, cfg Config) *Plan {
	return &Plan{seed: seed, cfg: cfg}
}

// Stats snapshots the injected-fault counters.
func (p *Plan) Stats() Stats {
	return Stats{
		LinkFlapDrops:    p.linkFlapDrops.Load(),
		LinkCorruptions:  p.linkCorruptions.Load(),
		LinkDuplicates:   p.linkDuplicates.Load(),
		LinkReorders:     p.linkReorders.Load(),
		PPEStalls:        p.ppeStalls.Load(),
		PPEStallNs:       p.ppeStallNs.Load(),
		MemBankErrors:    p.memBankErrors.Load(),
		HostaggRecvDrops: p.hostaggRecvDrops.Load(),
		HostaggCrashes:   p.hostaggCrashes.Load(),
	}
}

// ---- Link injection ----

// LinkVerdict is one frame's fate on a faulted link. The zero value means
// "deliver normally".
type LinkVerdict struct {
	Drop       bool     // flap window: the frame vanishes after serialization
	CorruptBit int      // >= 0: flip this bit index in a copy of the frame
	Duplicate  bool     // deliver a second copy DupDelay later
	ExtraDelay sim.Time // reordering: delay arrival by this much
	DupDelay   sim.Time // offset of the duplicate's arrival
}

// LinkInjector decides per-frame fault verdicts for one link from its own
// stream. Not safe for concurrent use (links are simulation objects).
type LinkInjector struct {
	plan *Plan
	cfg  LinkConfig
	rng  *sim.RNG
	flap int // cursor into cfg.Flaps; windows are visited in virtual-time order
}

// Link returns a fault injector for one link, or nil when the plan has no
// link faults configured. Each link must use a distinct id so fault streams
// stay uncorrelated across links.
func (p *Plan) Link(id uint64) *LinkInjector {
	if p == nil || !p.cfg.Link.enabled() {
		return nil
	}
	return &LinkInjector{plan: p, cfg: p.cfg.Link, rng: sim.NewRNG(p.seed, streamLinkBase+id)}
}

// Decide draws this frame's verdict. frameBits is the frame length in bits
// (for corruption bit selection). The draw sequence per frame is fixed —
// corrupt, duplicate, reorder — so a link's schedule depends only on its
// stream and send count, never on which faults previous frames suffered.
func (f *LinkInjector) Decide(now sim.Time, frameBits int) LinkVerdict {
	v := LinkVerdict{CorruptBit: -1}
	if len(f.cfg.Flaps) > 0 {
		for f.flap < len(f.cfg.Flaps) && now >= f.cfg.Flaps[f.flap].End {
			f.flap++
		}
		if f.flap < len(f.cfg.Flaps) && now >= f.cfg.Flaps[f.flap].Start {
			f.plan.linkFlapDrops.Add(1)
			v.Drop = true
			// The frame is gone; no further draws. Flap drops consume no
			// randomness, so schedules around a flap window stay aligned
			// with a flap-free run of the same stream.
			return v
		}
	}
	if f.cfg.CorruptProb > 0 && f.rng.Bernoulli(f.cfg.CorruptProb) {
		v.CorruptBit = f.rng.IntN(frameBits)
		f.plan.linkCorruptions.Add(1)
	}
	if f.cfg.DupProb > 0 && f.rng.Bernoulli(f.cfg.DupProb) {
		v.Duplicate = true
		v.DupDelay = dupDelay
		f.plan.linkDuplicates.Add(1)
	}
	if f.cfg.ReorderProb > 0 && f.rng.Bernoulli(f.cfg.ReorderProb) {
		v.ExtraDelay = reorderDelay
		f.plan.linkReorders.Add(1)
	}
	return v
}

// ---- PPE stall injection ----

// PFEInjector stalls PPE work items. One per PFE, own stream.
type PFEInjector struct {
	plan *Plan
	cfg  PFEConfig
	rng  *sim.RNG
}

// PFE returns a thread-stall injector, or nil when stalls are off.
func (p *Plan) PFE(id uint64) *PFEInjector {
	if p == nil || p.cfg.PFE.StallProb <= 0 {
		return nil
	}
	return &PFEInjector{plan: p, cfg: p.cfg.PFE, rng: sim.NewRNG(p.seed, streamPPE+id)}
}

// Stall returns the extra occupancy this work item suffers (0: none).
func (f *PFEInjector) Stall() sim.Time {
	if !f.rng.Bernoulli(f.cfg.StallProb) {
		return 0
	}
	d := f.rng.UniformTime(stallMin, stallMax)
	f.plan.ppeStalls.Add(1)
	f.plan.ppeStallNs.Add(uint64(d))
	return d
}

// ---- RMW bank-error injection ----

// MemInjector injects detected-and-retried bank errors into RMW engine
// requests. One per memory system, own stream.
type MemInjector struct {
	plan *Plan
	cfg  MemConfig
	rng  *sim.RNG
}

// Mem returns a bank-error injector, or nil when bank errors are off.
func (p *Plan) Mem(id uint64) *MemInjector {
	if p == nil || p.cfg.Mem.BankErrorProb <= 0 {
		return nil
	}
	return &MemInjector{plan: p, cfg: p.cfg.Mem, rng: sim.NewRNG(p.seed, streamMem+id)}
}

// BankError returns the extra engine cycles this request costs (0: none).
func (f *MemInjector) BankError() uint64 {
	if !f.rng.Bernoulli(f.cfg.BankErrorProb) {
		return 0
	}
	f.plan.memBankErrors.Add(1)
	return retryCycles
}

// ---- Host aggregator injection ----

// HostaggInjector hands out the fault stream of the wall-clock aggregation
// server's block table.
type HostaggInjector struct {
	plan *Plan
	cfg  HostaggConfig
}

// Hostagg returns a host-aggregator injector, or nil when that layer is
// fault-free.
func (p *Plan) Hostagg() *HostaggInjector {
	if p == nil || (p.cfg.Hostagg.RecvDropProb <= 0 && p.cfg.Hostagg.CrashEvery == 0) {
		return nil
	}
	return &HostaggInjector{plan: p, cfg: p.cfg.Hostagg}
}

// Table builds the block table's fault stream. The result must only be used
// under the table's lock.
func (h *HostaggInjector) Table() *HostaggTable {
	return &HostaggTable{plan: h.plan, cfg: h.cfg, rng: sim.NewRNG(h.plan.seed, streamHostagg)}
}

// HostaggTable is the block table's fault stream (serialized by its lock).
type HostaggTable struct {
	plan  *Plan
	cfg   HostaggConfig
	rng   *sim.RNG
	recvs uint64
}

// DropRecv reports whether this contribution is dropped at ingress.
func (s *HostaggTable) DropRecv() bool {
	if s.cfg.RecvDropProb > 0 && s.rng.Bernoulli(s.cfg.RecvDropProb) {
		s.plan.hostaggRecvDrops.Add(1)
		return true
	}
	return false
}

// CrashNow reports whether the table crashes after this contribution,
// wiping its open blocks. Counts one crash per firing.
func (s *HostaggTable) CrashNow() bool {
	if s.cfg.CrashEvery == 0 {
		return false
	}
	s.recvs++
	if s.recvs >= s.cfg.CrashEvery {
		s.recvs = 0
		s.plan.hostaggCrashes.Add(1)
		return true
	}
	return false
}
