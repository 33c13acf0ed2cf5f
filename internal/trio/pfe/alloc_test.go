package pfe_test

import (
	"encoding/binary"
	"testing"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trioml"
)

// TestMicrocodeAppZeroAlloc is the allocation gate of the Microcode packet
// path: on a warmed PFE, Process of an mcagg contribution — the first one of
// a block (buffer writes) and the second (the read-modify-write loop over
// every chunk: tail reads, shared-memory reads into the environment's
// staging buffer, the loop kernel, write-backs) — allocates nothing. The
// thread is the app's, reset per packet, not reallocated.
func TestMicrocodeAppZeroAlloc(t *testing.T) {
	const grads = 1024
	p := pfe.New(sim.NewEngine(), trioml.RecommendedPFEConfig())
	// Three sources, so the second contribution never completes a block and
	// every measured thread takes the same path.
	mc, err := trioml.InstallMCAgg(p, trioml.MCAggConfig{Sources: 3, Slots: 8, Grads: grads}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]int32, grads)
	for i := range g {
		g[i] = int32(i - 500)
	}
	var pkts [2]pfe.Packet
	for w := range pkts {
		pkts[w].Frame = packet.BuildTrioML(packet.UDPSpec{SrcPort: 5000},
			packet.TrioML{JobID: 1, SrcID: uint8(w), GenID: 1}, g)
	}
	var retired uint64 // by the thread that just finished
	mc.App.Finish = func(th *microcode.Thread, _ *pfe.Ctx, _ microcode.Verdict) {
		retired = th.Stats.Instructions
	}
	const blockOff = 43 // trio_ml_hdr_t.block_id, as the program reads it
	block := uint32(0)
	pair := func() {
		block++
		for w := range pkts {
			binary.BigEndian.PutUint32(pkts[w].Frame[blockOff:], block)
			if v := p.ProcessDirect(mc.App, &pkts[w]); v != pfe.VerdictConsume {
				t.Fatalf("block %d source %d: verdict %v, want consume", block, w, v)
			}
		}
		if retired < 2*grads { // two instructions per gradient in the add loop alone
			t.Fatalf("block %d: second contribution retired %d instructions: not the read-modify-write path", block, retired)
		}
	}
	pair() // warm: the pooled context and the shared-memory pages exist
	if allocs := testing.AllocsPerRun(50, pair); allocs != 0 {
		t.Fatalf("%v allocations per first+second contribution, want 0", allocs)
	}
	if mc.App.Errors != 0 {
		t.Fatalf("microcode errors: %d (%v)", mc.App.Errors, mc.App.LastError)
	}
}
