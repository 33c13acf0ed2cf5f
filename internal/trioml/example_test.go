package trioml_test

import (
	"fmt"

	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trioml"
)

// ExampleAggregator runs §4's in-network aggregation and §5's straggler
// mitigation on one PFE. Six workers aggregate through Trio-ML while worker
// 5 misses every other block: N = 100 phase-staggered timer threads sweep
// the block records' REF flags and release degraded partial results within
// twice the timeout, with no server-to-server messages. Then worker 5 goes
// dark for good, and the slow analysis thread demotes it from the job, so
// later blocks stop waiting for it. Every worker receives every result on
// its downlink and checks each sum bit for bit.
func ExampleAggregator() {
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
	// handle set cancels them at the end.
	stop := agg.StartStragglerDetection(timers, timeout)

	// Worker w sends w+1 in every lane, and only worker 5 ever misses a
	// block, so a full sum is 21 in every lane and a five-source one 15.
	sent := make(map[uint32]sim.Time)
	received := make([]int, numWorkers)
	bad := 0
	rx := netsim.NewSink(eng, func(w int, f []byte, at sim.Time) {
		fr, err := packet.Decode(f)
		if err != nil || !fr.IsTrioML() {
			return
		}
		h := fr.ML
		if h.AgeOp == trioml.NotifyDemoted {
			if w == 0 {
				fmt.Printf("  [%8.2f ms] source %d DEMOTED from job %d — future blocks no longer wait for it\n",
					at.Milliseconds(), h.SrcCnt, h.JobID)
			}
			return
		}
		received[w]++
		want := int32(15)
		if h.SrcCnt == numWorkers {
			want = 21
		}
		grads, _ := packet.Gradients(fr.Payload, int(h.GradCnt))
		for _, g := range grads {
			if g != want {
				bad++
			}
		}
		if w != 0 {
			return
		}
		kind := "complete"
		if h.Degraded {
			kind = fmt.Sprintf("DEGRADED (src_cnt=%d, age_op=%d)", h.SrcCnt, h.AgeOp)
		}
		fmt.Printf("  [%8.2f ms] block %2d result: %s  (%.2f ms after send)\n",
			at.Milliseconds(), h.BlockID, kind, (at - sent[h.BlockID]).Milliseconds())
	})
	for w := 0; w < numWorkers; w++ {
		router.Cable(0, w, netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig(), rx, w)
	}
	send := func(w int, b uint32, gen uint16) {
		grads := make([]int32, 256)
		for i := range grads {
			grads[i] = int32(w + 1)
		}
		router.Inject(0, w, uint64(w), packet.BuildTrioML(packet.UDPSpec{
			SrcIP: [4]byte{10, 0, 0, byte(w + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
		}, packet.TrioML{JobID: 1, BlockID: b, SrcID: uint8(w), GenID: gen}, grads))
	}

	fmt.Printf("worker %d is straggling; timeout %v, %d timer threads\n\n", straggler, timeout, timers)
	for b := uint32(0); b < blocks; b++ {
		at := sim.Time(b) * 2 * sim.Millisecond
		eng.At(at, func() {
			sent[b] = at
			for w := 0; w < numWorkers; w++ {
				if w == straggler && b%2 == 0 {
					continue // the straggler misses every even block
				}
				send(w, b, 1)
			}
		})
	}
	eng.RunUntil(60 * sim.Millisecond)

	st := agg.Stats()
	fmt.Printf("\nblocks completed in full: %d\n", st.BlocksCompleted)
	fmt.Printf("blocks mitigated (degraded): %d\n", st.BlocksDegraded)
	fmt.Printf("timer-thread firings: %d, records scanned: %d\n", st.TimerScans, st.TimerScanRecords)
	fmt.Println("\nservers receiving a degraded result divide the sums by src_cnt (§5).")

	// Act two, advanced mitigation (§5, final paragraph): the straggler goes
	// dark for good; the analysis thread, which runs at once and then every
	// 250 ms, counts its missed blocks and demotes it from the job.
	fmt.Println("\nworker 5 is now permanently out of service; advanced mitigation armed")
	stopSlow := agg.StartAdvancedMitigation(trioml.AdvancedConfig{EventThreshold: 4})
	for b := uint32(blocks); b < blocks+11; b++ {
		at := eng.Now() + sim.Time(b-blocks)*30*sim.Millisecond
		eng.At(at, func() {
			sent[b] = at
			for w := 0; w < numWorkers-1; w++ { // worker 5 never sends again
				send(w, b, 2)
			}
		})
	}
	eng.RunUntil(eng.Now() + 320*sim.Millisecond)
	st = agg.Stats()
	fmt.Printf("\nafter demotion: %d blocks completed in full, %d sources demoted\n",
		st.BlocksCompleted, st.SourcesDemoted)
	fmt.Printf("results per worker: %v, sums not bit-exact: %d\n", received, bad)

	// Cancel both timer-thread classes and drain: with their periodic events
	// removed, the remaining queue empties and the simulation ends cleanly.
	stop.Stop()
	stopSlow.Stop()
	eng.Run()
	fmt.Printf("event queue at exit: %d pending (clean shutdown)\n", eng.Pending())
	// Output:
	// worker 5 is straggling; timeout 10ms, 100 timer threads
	//
	//   [    2.01 ms] block  1 result: complete  (0.01 ms after send)
	//   [    6.01 ms] block  3 result: complete  (0.01 ms after send)
	//   [   10.01 ms] block  5 result: complete  (0.01 ms after send)
	//   [   10.70 ms] block  0 result: DEGRADED (src_cnt=5, age_op=1)  (10.70 ms after send)
	//   [   14.01 ms] block  7 result: complete  (0.01 ms after send)
	//   [   18.01 ms] block  9 result: complete  (0.01 ms after send)
	//   [   20.01 ms] block  4 result: DEGRADED (src_cnt=5, age_op=1)  (12.01 ms after send)
	//   [   20.01 ms] block  2 result: DEGRADED (src_cnt=5, age_op=1)  (16.01 ms after send)
	//   [   23.50 ms] block  6 result: DEGRADED (src_cnt=5, age_op=1)  (11.50 ms after send)
	//   [   33.80 ms] block  8 result: DEGRADED (src_cnt=5, age_op=1)  (17.80 ms after send)
	//
	// blocks completed in full: 5
	// blocks mitigated (degraded): 5
	// timer-thread firings: 601, records scanned: 16
	//
	// servers receiving a degraded result divide the sums by src_cnt (§5).
	//
	// worker 5 is now permanently out of service; advanced mitigation armed
	//   [   79.50 ms] block 10 result: DEGRADED (src_cnt=5, age_op=1)  (19.50 ms after send)
	//   [  104.10 ms] block 11 result: DEGRADED (src_cnt=5, age_op=1)  (14.10 ms after send)
	//   [  137.00 ms] block 12 result: DEGRADED (src_cnt=5, age_op=1)  (17.00 ms after send)
	//   [  169.10 ms] block 13 result: DEGRADED (src_cnt=5, age_op=1)  (19.10 ms after send)
	//   [  195.90 ms] block 14 result: DEGRADED (src_cnt=5, age_op=1)  (15.90 ms after send)
	//   [  225.20 ms] block 15 result: DEGRADED (src_cnt=5, age_op=1)  (15.20 ms after send)
	//   [  251.40 ms] block 16 result: DEGRADED (src_cnt=5, age_op=1)  (11.40 ms after send)
	//   [  288.80 ms] block 17 result: DEGRADED (src_cnt=5, age_op=1)  (18.80 ms after send)
	//   [  310.00 ms] source 5 DEMOTED from job 1 — future blocks no longer wait for it
	//   [  315.10 ms] block 18 result: DEGRADED (src_cnt=5, age_op=1)  (15.10 ms after send)
	//   [  330.01 ms] block 19 result: complete  (0.01 ms after send)
	//   [  360.01 ms] block 20 result: complete  (0.01 ms after send)
	//
	// after demotion: 7 blocks completed in full, 1 sources demoted
	// results per worker: [21 21 21 21 21 21], sums not bit-exact: 0
	// event queue at exit: 0 pending (clean shutdown)
}

// ExampleSetupHierarchy reproduces the Fig. 11(b) testbed: three workers on
// PFE0 and three on PFE1 (the two line cards), with PFE2 as the top-level
// aggregator. First-level results cross the chassis fabric directly, with no
// IP forwarding, over the pair of fabric links Router.Connect builds per
// group, and the final result is multicast back down to all six workers.
func ExampleSetupHierarchy() {
	eng := sim.NewEngine()
	router := trio.New(eng, trio.Config{NumPFEs: 3})
	h, err := trioml.SetupHierarchy(router, trioml.HierarchyConfig{
		JobID:  1,
		TopPFE: 2,
		Groups: []trioml.HierGroup{
			{PFE: 0, WorkerSrcIDs: []uint8{0, 1, 2}, WorkerPorts: []int{0, 1, 2}, UplinkPort: 15, TopPort: 0},
			{PFE: 1, WorkerSrcIDs: []uint8{3, 4, 5}, WorkerPorts: []int{0, 1, 2}, UplinkPort: 15, TopPort: 1},
		},
		ResultSpec: packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}},
	}, nil)
	if err != nil {
		panic(err)
	}

	// Attach the six workers and check the final sums they receive.
	received, bad := 0, 0
	for pfeIdx := 0; pfeIdx < 2; pfeIdx++ {
		for port := 0; port < 3; port++ {
			router.AttachExternal(pfeIdx, port, func(_ int, frame []byte, at sim.Time) {
				f, err := packet.Decode(frame)
				if err != nil || !f.IsTrioML() {
					return
				}
				grads, _ := packet.Gradients(f.Payload, int(f.ML.GradCnt))
				received++
				if grads[0] != 21 { // 1+2+3+4+5+6
					bad++
				}
			})
		}
	}

	// Each worker contributes gradients valued (worker+1).
	const blocks = 8
	for b := uint32(0); b < blocks; b++ {
		for w := 0; w < 6; w++ {
			pfeIdx, port := w/3, w%3
			grads := make([]int32, 512)
			for i := range grads {
				grads[i] = int32(w + 1)
			}
			router.Inject(pfeIdx, port, uint64(w), packet.BuildTrioML(packet.UDPSpec{
				SrcIP: [4]byte{10, 0, byte(pfeIdx), byte(port + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
			}, packet.TrioML{JobID: 1, BlockID: b, SrcID: uint8(w), GenID: 1}, grads))
		}
	}
	eng.Run()

	fmt.Printf("blocks aggregated at level 1 (PFE0): %d\n", h.Levels[0].Stats().BlocksCompleted)
	fmt.Printf("blocks aggregated at level 1 (PFE1): %d\n", h.Levels[1].Stats().BlocksCompleted)
	fmt.Printf("blocks aggregated at top level (PFE2): %d\n", h.Top.Stats().BlocksCompleted)
	fmt.Printf("results delivered to workers: %d (want %d), bad sums: %d\n", received, blocks*6, bad)
	// Workers inject directly, so the router's only links are the fabric's.
	var frames, bytes uint64
	for _, l := range h.Fabric {
		frames += l.Frames
		bytes += l.Bytes
	}
	fmt.Printf("fabric links carried %d frames / %d bytes — the data reduction property:\n", frames, bytes)
	fmt.Println("aggregated gradients shrink as they move up the hierarchy, the opposite of multicast replication (§4).")
	// Output:
	// blocks aggregated at level 1 (PFE0): 8
	// blocks aggregated at level 1 (PFE1): 8
	// blocks aggregated at top level (PFE2): 8
	// results delivered to workers: 48 (want 48), bad sums: 0
	// fabric links carried 32 frames / 67264 bytes — the data reduction property:
	// aggregated gradients shrink as they move up the hierarchy, the opposite of multicast replication (§4).
}
