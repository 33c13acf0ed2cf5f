// Hierarchical aggregation across a multi-PFE chassis, reproducing the
// Fig. 11(b) testbed topology: three workers on PFE0 and three on PFE1
// (the two line cards), with PFE2 configured as the top-level aggregator.
// First-level results cross the chassis fabric directly — no IP forwarding,
// over the pair of fabric links Router.Connect builds per group — and the
// final result is multicast back down to all six workers.
//
//	go run ./examples/hierarchical
package main

import (
	"fmt"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
	"github.com/trioml/triogo/internal/trioml"
)

func main() {
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

	// Attach the six workers and verify the final sums they receive.
	received := 0
	bad := 0
	for g := 0; g < 2; g++ {
		for port := 0; port < 3; port++ {
			pfeIdx := g
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
}
