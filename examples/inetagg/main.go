// In-network aggregation: six workers stream gradient blocks through a
// single-PFE Trio router running Trio-ML (§4 of the paper), and every worker
// receives the multicast aggregation results.
//
//	go run ./examples/inetagg
package main

import (
	"fmt"

	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trioml"
)

const (
	numWorkers  = 6
	numBlocks   = 32
	gradsPerPkt = 1024
)

func main() {
	eng := sim.NewEngine()
	router := trio.New(eng, trio.Config{NumPFEs: 1})
	agg := trioml.New(router.PFE(0))

	// Control plane: install the aggregation job — six sources, results
	// multicast back out the same six ports.
	if err := agg.InstallJob(trioml.StarJob(1, numWorkers, gradsPerPkt, 0)); err != nil {
		panic(err)
	}

	// Data plane: each worker sends its blocks over a 100 Gbps link and
	// verifies every result it receives.
	received := make([]int, numWorkers)
	bad := 0
	// One receiver serves every worker: each downlink tells it which.
	rx := netsim.NewSink(eng, func(w int, f []byte, at sim.Time) {
		fr, err := packet.Decode(f)
		if err != nil || !fr.IsTrioML() {
			return
		}
		grads, _ := packet.Gradients(fr.Payload, int(fr.ML.GradCnt))
		received[w]++
		// Worker i contributed value (block + i + lane); the sum over
		// the six workers is 6*(block+lane) + 0+1+...+5.
		want := int32(6*int(fr.ML.BlockID) + 15)
		if grads[0] != want {
			bad++
		}
	})
	for w := 0; w < numWorkers; w++ {
		up := router.Cable(0, w, netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig(), rx, w)
		for b := 0; b < numBlocks; b++ {
			grads := make([]int32, gradsPerPkt)
			for i := range grads {
				grads[i] = int32(b + w + i%1) // lane 0 pattern is what we verify
			}
			up.Send(packet.BuildTrioML(packet.UDPSpec{
				SrcIP: [4]byte{10, 0, 0, byte(w + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
			}, packet.TrioML{JobID: 1, BlockID: uint32(b), SrcID: uint8(w), GenID: 1}, grads))
		}
	}

	eng.Run()

	st := agg.Stats()
	fmt.Printf("aggregated %d packets into %d blocks (%d gradients)\n",
		st.Packets, st.BlocksCompleted, st.GradsAggregated)
	fmt.Printf("results received per worker: %v (want %d each)\n", received, numBlocks)
	fmt.Printf("verification failures: %d\n", bad)
	fmt.Printf("finished at virtual time %v\n", eng.Now())

	engines := router.PFE(0).Mem.Stats()
	var ops uint64
	for _, e := range engines {
		ops += e.Ops
	}
	fmt.Printf("read-modify-write engine operations: %d across %d engines\n", ops, len(engines))
}
