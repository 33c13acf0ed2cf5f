package trioml

import (
	"encoding/binary"
	"testing"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// TestAggregatorAllocs is the allocation gate of the native aggregator's
// packet path: on a warmed PFE, a 1024-gradient contribution that does not
// complete its block (hash insert, record write, the gradient stream's
// writes) allocates nothing, and the one that completes it (the RMW vector
// adds, the result build, the multicast, the recycling) allocates exactly
// one object: the result frame.
func TestAggregatorAllocs(t *testing.T) {
	const grads, blocks = packet.MaxGradientsPerPacket, 64
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	a := New(p)
	if err := a.InstallJob(StarJob(1, 2, grads, 0)); err != nil {
		t.Fatal(err)
	}
	results := 0
	p.SetOutput(func(int, []byte, sim.Time) { results++ })
	g := make([]int32, grads)
	for i := range g {
		g[i] = int32(i*7919 - 1<<30)
	}
	var frames [2][]byte
	for w := range frames {
		frames[w] = packet.BuildTrioML(packet.UDPSpec{SrcPort: 5000}, packet.TrioML{JobID: 1, SrcID: uint8(w), GenID: 1}, g)
	}
	const blockOff = packet.EthernetLen + 20 + packet.UDPLen + 1 // trio_ml_hdr_t.block_id
	send := func(w int, block uint32) {
		binary.BigEndian.PutUint32(frames[w][blockOff:], block)
		p.Inject(w, uint64(w), frames[w])
		eng.Run()
	}
	// Warm: every block's record, hash entry and buffer pages exist once.
	for b := range uint32(blocks) {
		send(0, b)
	}
	for b := range uint32(blocks) {
		send(1, b)
	}
	var b uint32
	if allocs := testing.AllocsPerRun(blocks-1, func() { send(0, b); b++ }); allocs != 0 {
		t.Fatalf("%v allocations per non-final contribution, want 0", allocs)
	}
	b = 0
	if allocs := testing.AllocsPerRun(blocks-1, func() { send(1, b); b++ }); allocs != 1 {
		t.Fatalf("%v allocations per completing contribution, want 1 (the result frame)", allocs)
	}
	if st := a.Stats(); st.BlocksCompleted != 2*blocks || results != 2*2*blocks {
		t.Fatalf("%d blocks completed, %d results out, want %d and %d", st.BlocksCompleted, results, 2*blocks, 4*blocks)
	}
}
