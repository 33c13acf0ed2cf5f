// Package switchml reimplements the SwitchML in-network aggregation design
// (Sapio et al., NSDI '21) on the PISA pipeline model of internal/pisa. It is
// the baseline the paper compares Trio-ML against (§6).
//
// The semantics that drive the comparison are preserved:
//
//   - A pool of aggregation slots lives in per-stage registers; a block's
//     slot is blockID mod pool size.
//   - Every participating worker must contribute a packet to a slot before
//     the switch releases the aggregated result — there is no timeout path,
//     because a PISA pipeline has no timer-driven compute (§5: "performing
//     timer-based operations in P4 requires coordination with the switch
//     control plane"). A straggling worker therefore stalls its slot and
//     every worker waiting on it.
//   - SwitchML-64 carries 64 gradients per packet; SwitchML-256 carries 256
//     and consumes the resources of all four pipelines (§6.1).
//   - Workers must share a single pipeline; cross-pipeline aggregation would
//     require recirculation and is unsupported, as in the open-source code.
//
// For an apples-to-apples comparison the wire format reuses the Trio-ML
// header (the real system's header differs only in field naming).
package switchml

import (
	"fmt"
	"slices"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/pisa"
)

// Packet-size designs from §6.1.
const (
	Grads64  = 64
	Grads256 = 256
)

// Config parameterizes the aggregator.
type Config struct {
	GradsPerPacket int   // Grads64 or Grads256
	PoolSize       int   // slots; the paper uses 512 with SwitchML-256
	WorkerPorts    []int // switch port of each worker, all on one pipeline
	ResultSpec     packet.UDPSpec
}

// Stats counts aggregator activity.
type Stats struct {
	Packets    uint64
	Duplicates uint64
	Results    uint64
	NonAggPkts uint64
}

// Aggregator is the SwitchML P4 program instance.
type Aggregator struct {
	cfg      Config
	workers  int // len(cfg.WorkerPorts)
	sw       *pisa.Switch
	pipeline int
	stats    Stats

	// gradsPerStage spreads a packet's gradients over pipeline stages:
	// gradient g lives at stage gradStageBase + g/gradsPerStage.
	gradsPerStage int

	// pending mirrors, for diagnostics only, which blocks hold partial
	// aggregations (the control plane can read registers; the data path
	// never consults this).
	pending map[uint32]int
}

// Stage layout of the slot state.
const (
	countStage    = 0
	seenStage     = 0
	gradStageBase = 1
)

// New installs a SwitchML aggregator as sw's program.
func New(sw *pisa.Switch, cfg Config) (*Aggregator, error) {
	workers := len(cfg.WorkerPorts)
	if workers == 0 {
		return nil, fmt.Errorf("switchml: need one port per worker, got none")
	}
	if cfg.GradsPerPacket != Grads64 && cfg.GradsPerPacket != Grads256 {
		return nil, fmt.Errorf("switchml: gradients per packet must be %d or %d", Grads64, Grads256)
	}
	if cfg.PoolSize <= 0 {
		return nil, fmt.Errorf("switchml: pool size must be positive")
	}
	pipeline := sw.PipelineOfPort(cfg.WorkerPorts[0])
	for _, p := range cfg.WorkerPorts[1:] {
		if sw.PipelineOfPort(p) != pipeline {
			return nil, fmt.Errorf("switchml: workers span pipelines %d and %d; cross-pipeline aggregation requires recirculation and is unsupported",
				pipeline, sw.PipelineOfPort(p))
		}
	}
	const stages = pisa.Stages - gradStageBase
	gradsPerStage := (cfg.GradsPerPacket + stages - 1) / stages
	// Register budget: each slot needs a seen flag per worker + 1 count at
	// stage 0, and gradsPerStage values per gradient stage.
	if need := cfg.PoolSize * (workers + 1); need > pisa.RegsPerStage {
		return nil, fmt.Errorf("switchml: pool %d needs %d stage-0 registers, switch has %d", cfg.PoolSize, need, pisa.RegsPerStage)
	}
	if need := cfg.PoolSize * gradsPerStage; need > pisa.RegsPerStage {
		return nil, fmt.Errorf("switchml: pool %d needs %d registers per gradient stage, switch has %d", cfg.PoolSize, need, pisa.RegsPerStage)
	}
	// The result multicast holds the port list: keep a copy the caller
	// cannot change.
	cfg.WorkerPorts = slices.Clone(cfg.WorkerPorts)
	a := &Aggregator{cfg: cfg, workers: workers, sw: sw, pipeline: pipeline, gradsPerStage: gradsPerStage, pending: make(map[uint32]int)}
	sw.SetApp(a)
	return a, nil
}

// Stats returns a snapshot of the counters.
func (a *Aggregator) Stats() Stats { return a.stats }

// Pending reports how many blocks currently hold partial aggregations —
// blocks stalled waiting for more workers. Stragglers show up here.
func (a *Aggregator) Pending() int { return len(a.pending) }

// Process implements pisa.App: one pipeline pass per aggregation packet.
func (a *Aggregator) Process(ctx *pisa.Ctx) bool {
	f, err := packet.Decode(ctx.Packet().Frame)
	if err != nil || !f.IsTrioML() {
		a.stats.NonAggPkts++
		return false
	}
	h := f.ML
	worker := int(h.SrcID)
	if worker < 0 || worker >= a.workers {
		a.stats.NonAggPkts++
		return false
	}
	grads, err := packet.Gradients(f.Payload, int(h.GradCnt))
	if err != nil || len(grads) > a.cfg.GradsPerPacket {
		a.stats.NonAggPkts++
		return false
	}
	a.stats.Packets++
	slot := int(h.BlockID) % a.cfg.PoolSize

	// Stage 0a: per-(slot,worker) seen flag. The marker is block id + 1
	// (nonzero); a slot's next tenant carries a different block id, so stale
	// flags never alias. A matching marker means retransmission.
	marker := int32(h.BlockID + 1)
	if old := ctx.RegSwap(seenStage, slot*(a.workers+1)+1+worker, marker); old == marker {
		a.stats.Duplicates++
		return false
	}

	// Stage 0b: contribution count. One predicated RegisterAction adds the
	// contribution and frees the slot when it completes.
	contrib := ctx.RegAddWrap(countStage, slot*(a.workers+1), 1, int32(a.workers))
	last := int(contrib) == a.workers

	// Gradient stages: add this packet's values; the final contributor
	// read-and-clears so the slot is immediately reusable (the shadow-pool
	// trick collapsed into the predicate).
	sums := make([]int32, len(grads))
	for g := range grads {
		stage := gradStageBase + g/a.gradsPerStage
		idx := slot*a.gradsPerStage + g%a.gradsPerStage
		if last {
			sums[g] = ctx.RegSwap(stage, idx, 0) + grads[g]
		} else {
			sums[g] = ctx.RegReadAdd(stage, idx, grads[g])
		}
	}

	if last {
		delete(a.pending, h.BlockID)
		a.stats.Results++
		out := packet.TrioML{
			JobID: h.JobID, BlockID: h.BlockID, GenID: h.GenID,
			SrcCnt: uint8(a.workers), GradCnt: h.GradCnt, Final: h.Final,
		}
		frame := packet.BuildTrioML(a.cfg.ResultSpec, out, sums)
		ctx.Multicast(a.cfg.WorkerPorts, frame)
	} else {
		a.pending[h.BlockID] = int(contrib)
	}
	return false
}

var _ pisa.App = (*Aggregator)(nil)
