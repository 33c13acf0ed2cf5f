package switchml

import (
	"testing"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/pisa"
	"github.com/trioml/triogo/internal/sim"
)

func testSetup(t *testing.T, workers, gradsPerPkt, pool int) (*sim.Engine, *pisa.Switch, *Aggregator, *[]resultFrame) {
	t.Helper()
	eng := sim.NewEngine()
	sw := pisa.New(eng, pisa.Config{})
	ports := make([]int, workers)
	for i := range ports {
		ports[i] = i
	}
	agg, err := New(sw, Config{
		GradsPerPacket: gradsPerPkt, PoolSize: pool,
		WorkerPorts: ports,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := &[]resultFrame{}
	sw.SetOutput(func(port int, frame []byte, at sim.Time) {
		f, err := packet.Decode(frame)
		if err != nil || !f.IsTrioML() {
			t.Errorf("bad result frame: %v", err)
			return
		}
		grads, _ := packet.Gradients(f.Payload, int(f.ML.GradCnt))
		*results = append(*results, resultFrame{port: port, hdr: *f.ML, grads: grads, at: at})
	})
	return eng, sw, agg, results
}

type resultFrame struct {
	port  int
	hdr   packet.TrioML
	grads []int32
	at    sim.Time
}

func aggPkt(worker int, block uint32, grads []int32) []byte {
	return packet.BuildTrioML(packet.UDPSpec{
		SrcIP: [4]byte{10, 0, 0, byte(worker + 1)}, DstIP: [4]byte{10, 0, 0, 100},
		SrcPort: 5000,
	}, packet.TrioML{JobID: 1, BlockID: block, SrcID: uint8(worker)}, grads)
}

func TestAggregatesWhenAllWorkersContribute(t *testing.T) {
	eng, sw, agg, results := testSetup(t, 3, Grads64, 16)
	for w := 0; w < 3; w++ {
		grads := make([]int32, 64)
		for i := range grads {
			grads[i] = int32((w + 1) * (i + 1))
		}
		sw.Inject(w, aggPkt(w, 7, grads))
	}
	eng.Run()
	// Multicast to all three workers.
	if len(*results) != 3 {
		t.Fatalf("results = %d", len(*results))
	}
	for _, r := range *results {
		if r.hdr.BlockID != 7 || int(r.hdr.SrcCnt) != 3 {
			t.Fatalf("hdr = %+v", r.hdr)
		}
		for i, g := range r.grads {
			want := int32((1 + 2 + 3) * (i + 1))
			if g != want {
				t.Fatalf("gradient %d = %d, want %d", i, g, want)
			}
		}
	}
	if agg.Stats().Results != 1 {
		t.Fatalf("stats = %+v", agg.Stats())
	}
}

func TestNoResultUntilLastWorker(t *testing.T) {
	eng, sw, agg, results := testSetup(t, 3, Grads64, 16)
	sw.Inject(0, aggPkt(0, 1, make([]int32, 64)))
	sw.Inject(1, aggPkt(1, 1, make([]int32, 64)))
	eng.Run()
	if len(*results) != 0 {
		t.Fatal("result released before all workers contributed")
	}
	if agg.Pending() != 1 {
		t.Fatalf("pending = %d", agg.Pending())
	}
	// The straggler finally arrives.
	sw.Inject(2, aggPkt(2, 1, make([]int32, 64)))
	eng.Run()
	if len(*results) != 3 {
		t.Fatalf("results = %d", len(*results))
	}
	if agg.Pending() != 0 {
		t.Fatal("slot not released")
	}
}

func TestRetransmissionIgnored(t *testing.T) {
	eng, sw, agg, results := testSetup(t, 2, Grads64, 16)
	grads := make([]int32, 64)
	grads[0] = 5
	sw.Inject(0, aggPkt(0, 3, grads))
	sw.Inject(0, aggPkt(0, 3, grads)) // duplicate
	sw.Inject(1, aggPkt(1, 3, grads))
	eng.Run()
	if agg.Stats().Duplicates != 1 {
		t.Fatalf("duplicates = %d", agg.Stats().Duplicates)
	}
	if (*results)[0].grads[0] != 10 {
		t.Fatalf("sum = %d, want 10 (duplicate must not double-count)", (*results)[0].grads[0])
	}
}

func TestSlotReusedByLaterBlock(t *testing.T) {
	eng, sw, _, results := testSetup(t, 2, Grads64, 4)
	for _, block := range []uint32{2, 6} { // both map to slot 2
		for w := 0; w < 2; w++ {
			g := make([]int32, 64)
			g[0] = int32(block)
			sw.Inject(w, aggPkt(w, block, g))
		}
		eng.Run()
	}
	if len(*results) != 4 {
		t.Fatalf("results = %d", len(*results))
	}
	if (*results)[0].grads[0] != 4 || (*results)[2].grads[0] != 12 {
		t.Fatalf("sums = %d, %d (slot state leaked between tenants)", (*results)[0].grads[0], (*results)[2].grads[0])
	}
}

func TestSwitchML256(t *testing.T) {
	eng, sw, _, results := testSetup(t, 2, Grads256, 512)
	for w := 0; w < 2; w++ {
		g := make([]int32, 256)
		for i := range g {
			g[i] = int32(i)
		}
		sw.Inject(w, aggPkt(w, 0, g))
	}
	eng.Run()
	if len(*results) != 2 {
		t.Fatalf("results = %d", len(*results))
	}
	for i, g := range (*results)[0].grads {
		if g != int32(2*i) {
			t.Fatalf("gradient %d = %d", i, g)
		}
	}
}

func TestWorkersSpanningPipelinesRejected(t *testing.T) {
	eng := sim.NewEngine()
	sw := pisa.New(eng, pisa.Config{})
	_, err := New(sw, Config{
		GradsPerPacket: Grads64, PoolSize: 16,
		WorkerPorts: []int{0, 20}, // pipelines 0 and 1
	})
	if err == nil {
		t.Fatal("cross-pipeline config accepted")
	}
}

func TestPoolTooLargeRejected(t *testing.T) {
	eng := sim.NewEngine()
	sw := pisa.New(eng, pisa.Config{})
	_, err := New(sw, Config{ // 16384 slots x 7 stage-0 registers > pisa.RegsPerStage
		GradsPerPacket: Grads64, PoolSize: 16384,
		WorkerPorts: []int{0, 1, 2, 3, 4, 5},
	})
	if err == nil {
		t.Fatal("oversized pool accepted")
	}
}

func TestBadGradCountRejected(t *testing.T) {
	_, err := New(pisa.New(sim.NewEngine(), pisa.Config{}), Config{
		GradsPerPacket: 100, PoolSize: 16, WorkerPorts: []int{0, 1},
	})
	if err == nil {
		t.Fatal("grads-per-packet 100 accepted")
	}
}

func TestNonAggregationTrafficIgnored(t *testing.T) {
	eng, sw, agg, results := testSetup(t, 2, Grads64, 16)
	plain := packet.BuildUDP(packet.UDPSpec{SrcPort: 1, DstPort: 2}, []byte("hello"))
	sw.Inject(0, plain)
	eng.Run()
	if agg.Stats().NonAggPkts != 1 || len(*results) != 0 {
		t.Fatalf("stats = %+v", agg.Stats())
	}
}

func TestManyBlocksStreaming(t *testing.T) {
	// 2 workers stream 100 blocks through a 16-slot pool; every block must
	// aggregate exactly once with the right sum.
	eng, sw, agg, results := testSetup(t, 2, Grads64, 16)
	for block := uint32(0); block < 100; block++ {
		for w := 0; w < 2; w++ {
			g := make([]int32, 64)
			for i := range g {
				g[i] = int32(block) + int32(w)
			}
			sw.Inject(w, aggPkt(w, block, g))
		}
		eng.Run() // window 1: block completes before the next begins
	}
	if agg.Stats().Results != 100 {
		t.Fatalf("results = %d", agg.Stats().Results)
	}
	seen := map[uint32]bool{}
	for _, r := range *results {
		if r.port != 0 {
			continue
		}
		if seen[r.hdr.BlockID] {
			t.Fatalf("block %d aggregated twice", r.hdr.BlockID)
		}
		seen[r.hdr.BlockID] = true
		want := int32(2*r.hdr.BlockID) + 1
		if r.grads[10] != want {
			t.Fatalf("block %d sum = %d, want %d", r.hdr.BlockID, r.grads[10], want)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("blocks aggregated = %d", len(seen))
	}
}
