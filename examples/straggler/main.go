// Straggler mitigation: demonstrates §5 of the paper. Six workers aggregate
// through Trio-ML while one straggles; N = 100 phase-staggered timer threads
// sweep the aggregation table's REF flags and release partial (degraded)
// results within twice the configured timeout — no server-to-server
// messages involved.
//
//	go run ./examples/straggler
package main

import (
	"fmt"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trioml"
)

func main() {
	const (
		numWorkers = 6
		straggler  = 5
		timeout    = 10 * sim.Millisecond
		timers     = 100
		blocks     = 10
	)

	eng := sim.NewEngine()
	router := trio.New(eng, trio.Config{NumPFEs: 1})
	agg := trioml.New(router.PFE(0))

	if err := agg.InstallJob(trioml.StarJob(1, numWorkers, 0, timeout)); err != nil {
		panic(err)
	}

	// Launch the timer threads: interarrival = timeout / N (§5). The returned
	// handle set cancels them — removing their pending firings from the event
	// queue — at the end of the demo.
	stop := agg.StartStragglerDetection(timers, timeout)

	sent := make(map[uint32]sim.Time)
	agg.OnResult = func(h packet.TrioML, at sim.Time) {
		kind := "complete"
		if h.Degraded {
			kind = fmt.Sprintf("DEGRADED (src_cnt=%d, age_op=%d)", h.SrcCnt, h.AgeOp)
		}
		fmt.Printf("  [%8.2f ms] block %2d result: %s  (%.2f ms after send)\n",
			at.Milliseconds(), h.BlockID, kind, (at - sent[h.BlockID]).Milliseconds())
	}

	fmt.Printf("worker %d is straggling; timeout %v, %d timer threads\n\n", straggler, timeout, timers)
	for b := uint32(0); b < blocks; b++ {
		b := b
		at := sim.Time(b) * 2 * sim.Millisecond
		eng.At(at, func() {
			sent[b] = at
			for w := 0; w < numWorkers; w++ {
				if w == straggler && b%2 == 0 {
					continue // the straggler misses every even block
				}
				grads := make([]int32, 256)
				for i := range grads {
					grads[i] = int32(w + 1)
				}
				router.Inject(0, w, uint64(w), packet.BuildTrioML(packet.UDPSpec{
					SrcIP: [4]byte{10, 0, 0, byte(w + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
				}, packet.TrioML{JobID: 1, BlockID: b, SrcID: uint8(w), GenID: 1}, grads))
			}
		})
	}

	eng.RunUntil(60 * sim.Millisecond)

	st := agg.Stats()
	fmt.Printf("\nblocks completed in full: %d\n", st.BlocksCompleted)
	fmt.Printf("blocks mitigated (degraded): %d\n", st.BlocksDegraded)
	fmt.Printf("timer-thread firings: %d, records scanned: %d\n", st.TimerScans, st.TimerScanRecords)
	fmt.Println("\nservers receiving a degraded result divide the sums by src_cnt (§5).")

	// Act two — advanced mitigation (§5, final paragraph): the straggler
	// goes permanently dark; a slow analysis thread counts its missed
	// blocks and demotes it from the job, removing the timeout penalty.
	fmt.Println("\nworker 5 is now permanently out of service; advanced mitigation armed")
	stopSlow := agg.StartAdvancedMitigation(trioml.AdvancedConfig{
		AnalyzePeriod: 25 * sim.Millisecond, EventThreshold: 4,
	})
	agg.OnDemotion = func(job, src uint8, at sim.Time) {
		fmt.Printf("  [%8.2f ms] source %d DEMOTED from job %d — future blocks no longer wait for it\n",
			at.Milliseconds(), src, job)
	}
	for b := uint32(blocks); b < blocks+12; b++ {
		b := b
		at := eng.Now() + sim.Time(b-blocks)*3*sim.Millisecond
		eng.At(at, func() {
			sent[b] = at
			for w := 0; w < numWorkers-1; w++ { // worker 5 never sends again
				grads := make([]int32, 256)
				router.Inject(0, w, uint64(w), packet.BuildTrioML(packet.UDPSpec{
					SrcIP: [4]byte{10, 0, 0, byte(w + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
				}, packet.TrioML{JobID: 1, BlockID: b, SrcID: uint8(w), GenID: 2}, grads))
			}
		})
	}
	eng.RunUntil(eng.Now() + 80*sim.Millisecond)
	st = agg.Stats()
	fmt.Printf("\nafter demotion: %d blocks completed in full, %d sources demoted\n",
		st.BlocksCompleted, st.SourcesDemoted)

	// Cancel both timer-thread classes and drain: with their periodic events
	// removed, the remaining queue empties and the simulation exits cleanly.
	stop.Stop()
	stopSlow.Stop()
	eng.Run()
	fmt.Printf("event queue at exit: %d pending (clean shutdown)\n", eng.Pending())
}
