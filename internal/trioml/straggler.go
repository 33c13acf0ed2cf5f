package trioml

import (
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// This file implements §5: in-network straggler mitigation with timer
// threads. N periodic threads are launched with interarrival timeout/N; each
// sweeps 1/N of the aggregation hash table, checking and clearing the
// hardware REF flags. A block record whose REF flag is already clear has not
// been referenced for at least one full timeout interval: its block has aged
// out, so the thread emits a partial (degraded) Result and reclaims the
// record — without any message passing between servers.

// StartStragglerDetection launches n timer threads with the given overall
// timeout interval and returns their cancellable handle set. Every firing
// occupies an ordinary PPE thread based on availability (no PPE is reserved).
func (a *Aggregator) StartStragglerDetection(n int, timeout sim.Time) *pfe.TimerThreads {
	return a.pfe.StartTimerThreads(n, timeout, func(ctx *pfe.Ctx, part int) {
		a.scanPartition(ctx, part, n)
	})
}

// scanPartition is one timer-thread firing.
func (a *Aggregator) scanPartition(ctx *pfe.Ctx, part, nParts int) {
	a.stats.TimerScans++
	type aged struct {
		key  uint64
		addr uint64
	}
	var expired []aged
	visited := ctx.ScanHashPartition(part, nParts, func(key, val uint64, ref bool) hasheng.ScanAction {
		_, blockID := SplitKey(key)
		if blockID == JobBlockID {
			return hasheng.ScanKeep // job records do not age
		}
		if ref {
			return hasheng.ScanClearRef
		}
		expired = append(expired, aged{key: key, addr: val})
		return hasheng.ScanDelete
	})
	a.stats.TimerScanRecords += uint64(visited)

	for _, e := range expired {
		jobID, _ := SplitKey(e.key)
		js := a.jobs[jobID]
		if js == nil {
			continue
		}
		ctx.MemReadInto(e.addr, a.rec[:])
		rec := decodeBlock(a.rec[:])
		if rec.RcvdCnt == 0 {
			// Nothing aggregated; just reclaim.
			js.freeRecs = append(js.freeRecs, e.addr)
			if buf, ok := js.bufOf[e.key]; ok {
				js.freeBufs = append(js.freeBufs, buf)
				delete(js.bufOf, e.key)
			}
			continue
		}
		rec.BlockAge++
		ctx.MemReadInto(uint64(rec.JobCtxPAddr), a.rec[:])
		job := decodeJob(a.rec[:])
		a.recordStragglerEvents(ctx, jobID, job, rec)
		// The scan already removed the record, so finishBlock's delete is
		// a harmless no-op.
		a.finishBlock(ctx, js, e.key, e.addr, rec, job, true)
	}
}
