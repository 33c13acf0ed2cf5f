package pfe_test

import (
	"encoding/binary"
	"math"
	"runtime"
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
	p := pfe.New(sim.NewEngine(), pfe.Config{})
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

// TestMulticastAllocsIndependentOfPorts pins that a multicast is one record
// from the thread to the wire: a warmed PFE whose aggregator distributes a
// Result packet from upstream to 4 local workers, and one distributing it to
// 200, make the same allocations per result (the distributed frame itself),
// with several results in flight at once. Bytes are held to within 16 B per
// result, for the runtime's own small allocations: anything per port, even
// one byte for each of 196 more ports, is well past that.
func TestMulticastAllocsIndependentOfPorts(t *testing.T) {
	const upPort, inFlight = 200, 4
	result := packet.BuildTrioML(packet.UDPSpec{SrcPort: 5000},
		packet.TrioML{JobID: 1, SrcID: trioml.ResultSrcID, SrcCnt: 2, GradCnt: 32}, make([]int32, 32))
	measure := func(workers int) (allocs, bytes float64) {
		eng := sim.NewEngine()
		p := pfe.New(eng, pfe.Config{NumPorts: upPort + 1})
		var copies int
		p.SetOutput(func(int, []byte, sim.Time) { copies++ })
		agg := trioml.New(p)
		ports := make([]int, workers)
		for i := range ports {
			ports[i] = i
		}
		if err := agg.InstallJob(trioml.JobConfig{
			JobID: 1, Sources: []uint8{0}, UpstreamPort: upPort, DistributePorts: ports,
		}); err != nil {
			t.Fatal(err)
		}
		distribute := func() {
			for range inFlight {
				p.Inject(upPort, upPort, result)
			}
			eng.Run()
		}
		distribute() // warm: the records, the emit lists and the event slab exist
		const runs = 50
		allocs = testing.AllocsPerRun(runs, distribute)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			distribute()
		}
		runtime.ReadMemStats(&after)
		if want := (2*runs + 2) * inFlight * workers; copies != want {
			t.Fatalf("%d workers: %d copies delivered, want %d", workers, copies, want)
		}
		return allocs / inFlight, float64(after.TotalAlloc-before.TotalAlloc) / runs / inFlight
	}
	allocs4, bytes4 := measure(4)
	allocs200, bytes200 := measure(200)
	t.Logf("per result: %v allocations and %.1f B to 4 ports, %v and %.1f B to 200", allocs4, bytes4, allocs200, bytes200)
	if allocs200 != allocs4 || math.Abs(bytes200-bytes4) > 16 {
		t.Fatalf("a multicast to 200 ports makes %v allocations and %.1f B, to 4 ports %v and %.1f B: per-port work is back",
			allocs200, bytes200, allocs4, bytes4)
	}
}
