package trioml

import (
	"testing"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
)

func mcaggSetup(t *testing.T, sources int) (*sim.Engine, *pfe.PFE, *MCAgg, *[]result) {
	t.Helper()
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	agg, err := InstallMCAgg(p, MCAggConfig{Sources: sources, Slots: 64}, 7)
	if err != nil {
		t.Fatal(err)
	}
	results := &[]result{}
	p.SetOutput(func(port int, frame []byte, at sim.Time) {
		f, err := packet.Decode(frame)
		if err != nil || !f.IsTrioML() {
			t.Errorf("bad result frame: %v", err)
			return
		}
		grads, err := packet.Gradients(f.Payload, MCAggGrads)
		if err != nil {
			t.Errorf("bad gradients: %v", err)
			return
		}
		*results = append(*results, result{port: port, hdr: *f.ML, grads: grads, at: at})
	})
	return eng, p, agg, results
}

func mcaggPkt(worker int, block uint32, grads []int32) []byte {
	return packet.BuildTrioML(packet.UDPSpec{
		SrcIP: [4]byte{10, 0, 0, byte(worker + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
	}, packet.TrioML{JobID: 1, BlockID: block, SrcID: uint8(worker), GenID: 1}, grads)
}

func TestMCAggProgramSize(t *testing.T) {
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	agg, err := InstallMCAgg(p, MCAggConfig{Sources: 4, Slots: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The full production program is ≈60 instructions (§6.3); this fast
	// path subset should land in the same ballpark, well under it.
	if n := agg.Program.Len(); n < 20 || n > 60 {
		t.Fatalf("program = %d instructions", n)
	}
}

func TestMCAggAggregatesLikeNative(t *testing.T) {
	eng, p, agg, results := mcaggSetup(t, 3)
	for w := 0; w < 3; w++ {
		grads := make([]int32, MCAggGrads)
		for i := range grads {
			grads[i] = int32((w + 1) * (i + 1))
		}
		p.Inject(w%p.Cfg.NumPorts, uint64(w), mcaggPkt(w, 9, grads))
	}
	eng.Run()
	if agg.App.Errors != 0 {
		t.Fatalf("microcode errors: %d", agg.App.Errors)
	}
	if len(*results) != 1 {
		t.Fatalf("results = %d", len(*results))
	}
	r := (*results)[0]
	if r.port != 7 {
		t.Fatalf("egress port = %d", r.port)
	}
	if r.hdr.SrcID != ResultSrcID || r.hdr.SrcCnt != 3 || r.hdr.BlockID != 9 {
		t.Fatalf("hdr = %+v", r.hdr)
	}
	for i, g := range r.grads {
		want := int32(6 * (i + 1)) // (1+2+3)(i+1)
		if g != want {
			t.Fatalf("gradient %d = %d, want %d", i, g, want)
		}
	}
}

func TestMCAggNegativeGradients(t *testing.T) {
	eng, p, _, results := mcaggSetup(t, 2)
	a := make([]int32, MCAggGrads)
	b := make([]int32, MCAggGrads)
	for i := range a {
		a[i] = int32(-100 * (i + 1))
		b[i] = int32(99 * (i + 1))
	}
	p.Inject(0, 0, mcaggPkt(0, 0, a))
	p.Inject(1, 1, mcaggPkt(1, 0, b))
	eng.Run()
	if len(*results) != 1 {
		t.Fatalf("results = %d", len(*results))
	}
	for i, g := range (*results)[0].grads {
		if g != int32(-(i + 1)) {
			t.Fatalf("gradient %d = %d, want %d", i, g, -(i + 1))
		}
	}
}

func TestMCAggDuplicateDropped(t *testing.T) {
	eng, p, _, results := mcaggSetup(t, 2)
	g := make([]int32, MCAggGrads)
	g[0] = 5
	p.Inject(0, 0, mcaggPkt(0, 3, g))
	p.Inject(0, 0, mcaggPkt(0, 3, g)) // retransmission
	p.Inject(1, 1, mcaggPkt(1, 3, g))
	eng.Run()
	if len(*results) != 1 {
		t.Fatalf("results = %d", len(*results))
	}
	if (*results)[0].grads[0] != 10 {
		t.Fatalf("sum = %d, want 10 (duplicate must not double-count)", (*results)[0].grads[0])
	}
	if p.Stats().Dropped != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestMCAggManyBlocksStreaming(t *testing.T) {
	eng, p, agg, results := mcaggSetup(t, 4)
	const blocks = 200 // exercises slot reuse (64-slot pool)
	for b := uint32(0); b < blocks; b++ {
		for w := 0; w < 4; w++ {
			g := make([]int32, MCAggGrads)
			for i := range g {
				g[i] = int32(b) + int32(w)
			}
			p.Inject(w, uint64(w), mcaggPkt(w, b, g))
		}
		eng.Run() // complete each block before the next reuses its slot
	}
	if agg.App.Errors != 0 {
		t.Fatalf("microcode errors: %d", agg.App.Errors)
	}
	if len(*results) != blocks {
		t.Fatalf("results = %d", len(*results))
	}
	for _, r := range *results {
		want := int32(4*r.hdr.BlockID) + 6 // 4b + (0+1+2+3)
		if r.grads[3] != want {
			t.Fatalf("block %d sum = %d, want %d", r.hdr.BlockID, r.grads[3], want)
		}
	}
}

func TestMCAggSlotReuseAcrossPoolWrap(t *testing.T) {
	// Blocks 5 and 69 share slot 5 (64-slot pool); sequential use must not
	// leak state.
	eng, p, _, results := mcaggSetup(t, 2)
	for _, blk := range []uint32{5, 69} {
		for w := 0; w < 2; w++ {
			g := make([]int32, MCAggGrads)
			g[0] = int32(blk)
			p.Inject(w, uint64(w), mcaggPkt(w, blk, g))
		}
		eng.Run()
	}
	if len(*results) != 2 {
		t.Fatalf("results = %d", len(*results))
	}
	if (*results)[0].grads[0] != 10 || (*results)[1].grads[0] != 138 {
		t.Fatalf("sums = %d, %d", (*results)[0].grads[0], (*results)[1].grads[0])
	}
}

func TestMCAggInstructionCostPerGradient(t *testing.T) {
	eng, p, _, _ := mcaggSetup(t, 2)
	g := make([]int32, MCAggGrads)
	p.Inject(0, 0, mcaggPkt(0, 0, g))
	eng.Run()
	before := p.Stats().Instructions
	p.Inject(1, 1, mcaggPkt(1, 0, g))
	eng.Run()
	perPacket := p.Stats().Instructions - before
	// The add loop runs 3 instructions per gradient (add, control, step)
	// plus fixed overhead; the whole non-first packet should stay within a
	// small multiple of the paper's 1.2 instructions/gradient loop body.
	if perPacket < 3*MCAggGrads || perPacket > 8*MCAggGrads {
		t.Fatalf("instructions per aggregating packet = %d", perPacket)
	}
}

func TestMCAggConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	if _, err := InstallMCAgg(p, MCAggConfig{Sources: 1, Slots: 16}, 0); err == nil {
		t.Fatal("1 source accepted")
	}
	if _, err := InstallMCAgg(p, MCAggConfig{Sources: 4, Slots: 15}, 0); err == nil {
		t.Fatal("non-power-of-two slots accepted")
	}
}

// ---- full data-path configuration: 1024 gradients, tail loop + straddle ----

func TestMCAggFullTailPath(t *testing.T) {
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	agg, err := InstallMCAgg(p, MCAggConfig{Sources: 4, Slots: 16, Grads: 1024}, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full program: %d instructions", agg.Program.Len())
	var results []result
	p.SetOutput(func(port int, frame []byte, at sim.Time) {
		f, err := packet.Decode(frame)
		if err != nil || !f.IsTrioML() {
			t.Errorf("bad frame: %v", err)
			return
		}
		grads, err := packet.Gradients(f.Payload, 1024)
		if err != nil {
			t.Errorf("bad gradients: %v", err)
			return
		}
		results = append(results, result{port: port, hdr: *f.ML, grads: grads, at: at})
	})
	for w := 0; w < 4; w++ {
		grads := make([]int32, 1024)
		for i := range grads {
			grads[i] = int32((w + 1) * (i - 512))
		}
		p.Inject(w, uint64(w), mcaggPkt(w, 5, grads))
	}
	eng.Run()
	if agg.App.Errors != 0 {
		t.Fatalf("microcode errors: %d (%v)", agg.App.Errors, agg.App.LastError)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	r := results[0]
	if r.hdr.SrcCnt != 4 || r.hdr.SrcID != ResultSrcID {
		t.Fatalf("hdr = %+v", r.hdr)
	}
	for i, g := range r.grads {
		want := int32(10 * (i - 512)) // (1+2+3+4)(i-512)
		if g != want {
			t.Fatalf("gradient %d = %d, want %d", i, g, want)
		}
	}
}

func TestMCAggFullMatchesNativeAggregator(t *testing.T) {
	// The same workload through the Microcode program and the native
	// Aggregator must produce identical sums.
	const grads = 256
	inputs := make([][]int32, 3)
	for w := range inputs {
		inputs[w] = make([]int32, grads)
		for i := range inputs[w] {
			inputs[w][i] = int32((w*31+i*7)%1000 - 500)
		}
	}

	// Microcode path.
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	if _, err := InstallMCAgg(p, MCAggConfig{Sources: 3, Slots: 8, Grads: grads}, 0); err != nil {
		t.Fatal(err)
	}
	var mcSums []int32
	p.SetOutput(func(_ int, frame []byte, _ sim.Time) {
		f, _ := packet.Decode(frame)
		mcSums, _ = packet.Gradients(f.Payload, grads)
	})
	for w := 0; w < 3; w++ {
		p.Inject(w, uint64(w), mcaggPkt(w, 0, inputs[w]))
	}
	eng.Run()

	// Native path.
	r := newRig(t, JobConfig{
		JobID: 1, Sources: []uint8{0, 1, 2}, ResultPorts: []int{0},
		UpstreamPort: -1, BlockGradMax: grads,
	})
	for w := 0; w < 3; w++ {
		frame := packet.BuildTrioML(packet.UDPSpec{
			SrcIP: [4]byte{10, 0, 0, byte(w + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
		}, packet.TrioML{JobID: 1, BlockID: 0, SrcID: uint8(w), GenID: 1}, inputs[w])
		r.pfe.Inject(w, uint64(w), frame)
	}
	r.eng.Run()

	if mcSums == nil || len(r.results) == 0 {
		t.Fatalf("mc=%v native=%d results", mcSums != nil, len(r.results))
	}
	native := r.results[0].grads
	for i := range native {
		if mcSums[i] != native[i] {
			t.Fatalf("gradient %d: microcode %d != native %d", i, mcSums[i], native[i])
		}
	}
}

// TestMCAggBlockCostVsNative pins the virtual time one 1024-gradient block
// from two workers takes through each data path, injected at t=0 into one
// PFE: the Microcode program does every add on the PPE thread, the native
// aggregator offloads them to the RMW engines. EXPERIMENTS.md's ablation
// table and ROADMAP item 3 cite these two figures.
func TestMCAggBlockCostVsNative(t *testing.T) {
	const workers, grads = 2, 1024
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	if _, err := InstallMCAgg(p, MCAggConfig{Sources: workers, Slots: 32, Grads: grads}, 0); err != nil {
		t.Fatal(err)
	}
	var mcAt sim.Time
	p.SetOutput(func(_ int, _ []byte, at sim.Time) { mcAt = at })
	for w := 0; w < workers; w++ {
		p.Inject(w, uint64(w), mcaggPkt(w, 0, make([]int32, grads)))
	}
	eng.Run()

	r := newRig(t, JobConfig{
		JobID: 1, Sources: []uint8{0, 1}, ResultPorts: []int{0},
		UpstreamPort: -1, BlockGradMax: grads,
	})
	for w := 0; w < workers; w++ {
		r.pfe.Inject(w, uint64(w), mcaggPkt(w, 0, make([]int32, grads)))
	}
	r.eng.Run()
	if len(r.results) != 1 {
		t.Fatalf("native path produced %d results, want 1", len(r.results))
	}
	t.Logf("one %d-gradient block: Microcode %v, native %v (%.1fx)",
		grads, mcAt, r.results[0].at, float64(mcAt)/float64(r.results[0].at))
	if mcAt != 145284*sim.Nanosecond || r.results[0].at != 42946*sim.Nanosecond {
		t.Fatalf("block took %v through Microcode and %v native, want 145.284µs and 42.946µs; update EXPERIMENTS.md if this moved on purpose",
			mcAt, r.results[0].at)
	}
}

func TestMCAggFullStaticInstructionCount(t *testing.T) {
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	agg, err := InstallMCAgg(p, MCAggConfig{Sources: 6, Slots: 64, Grads: 1024}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// §6.3: the production program is ≈60 instructions. The full data path
	// here, including the result-build loop, must land in that ballpark.
	if n := agg.Program.Len(); n < 40 || n > 90 {
		t.Fatalf("program = %d instructions, want ≈60-70", n)
	}
}
