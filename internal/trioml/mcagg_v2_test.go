package trioml

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trio/smem"
)

// mcaggRig installs mcagg with an arbitrary configuration and collects
// decoded results (mcaggSetup pins the default config; these tests sweep
// Grads and Unroll).
func mcaggRig(t *testing.T, cfg MCAggConfig) (*sim.Engine, *pfe.PFE, *MCAgg, *[]result) {
	t.Helper()
	cfg = cfg.withDefaults()
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	agg, err := InstallMCAgg(p, cfg, 7)
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
		grads, err := packet.Gradients(f.Payload, cfg.Grads)
		if err != nil {
			t.Errorf("bad gradients: %v", err)
			return
		}
		*results = append(*results, result{port: port, hdr: *f.ML, grads: grads, at: at})
	})
	return eng, p, agg, results
}

// mcaggBlockFrames builds one block's contributions, source w's at index w.
func mcaggBlockFrames(cfg MCAggConfig, block uint32) [][]byte {
	frames := make([][]byte, cfg.Sources)
	for w := range frames {
		g := make([]int32, cfg.Grads)
		for i := range g {
			g[i] = int32((w*31+i*7)%997 - 498)
		}
		frames[w] = mcaggPkt(w, block, g)
	}
	return frames
}

// mcaggInjectBlock runs one block through the rig, one contribution at a
// time, and returns each one's instruction count.
func mcaggInjectBlock(p *pfe.PFE, eng *sim.Engine, cfg MCAggConfig, block uint32) []uint64 {
	perPacket := make([]uint64, cfg.Sources)
	for w, frame := range mcaggBlockFrames(cfg, block) {
		before := p.Stats().Instructions
		p.Inject(w%p.Cfg.NumPorts, uint64(w), frame)
		eng.Run()
		perPacket[w] = p.Stats().Instructions - before
	}
	return perPacket
}

// TestMCAggCostModelMatchesMeasured holds the cost run to a full one-PFE
// rig at every point of progdse's full grid (harness.ProgDSESpace(false):
// grads {64, 256, 1024} x unroll {1, 2, 4, 8, 16} x slots {16, 64, 256}),
// at 3, 4 and 6 sources. One block's frames go through both: each
// contributor's Thread.Stats — instructions and XTXNs — must be equal, and
// so must the result the last one builds, which an Env whose memory
// aliases would get wrong. Cost, which runs the block on zero gradients,
// must report the rig's program length, instructions per gradient and DRAM
// buffer pool. This is what licenses progdse to prune on Cost without
// simulating.
func TestMCAggCostModelMatchesMeasured(t *testing.T) {
	for _, grads := range []int{64, 256, 1024} {
		for _, u := range []int{1, 2, 4, 8, 16} {
			for _, slots := range []int{16, 64, 256} {
				for _, src := range []int{3, 4, 6} {
					checkMCAggCost(t, MCAggConfig{Sources: src, Slots: slots, Grads: grads, Unroll: u})
				}
			}
		}
	}
	if _, err := (MCAggConfig{Sources: 4, Slots: 3}).Cost(); err == nil {
		t.Error("invalid config: Cost returned no error")
	}
}

func checkMCAggCost(t *testing.T, cfg MCAggConfig) {
	t.Helper()
	eng, p, agg, results := mcaggRig(t, cfg)
	var got []microcode.Stats
	agg.App.Finish = func(th *microcode.Thread, _ *pfe.Ctx, _ microcode.Verdict) {
		got = append(got, th.Stats)
	}
	mcaggInjectBlock(p, eng, cfg, 1)
	frames := mcaggBlockFrames(cfg, 1)
	want, static, err := mcaggBlockRun(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(*results) != 1 || len(got) != cfg.Sources {
		t.Fatalf("%+v: results = %d, threads = %d", cfg, len(*results), len(got))
	}
	var instr uint64
	for w := range got {
		if got[w].Instructions != want[w].Instructions || got[w].XTXNs != want[w].XTXNs {
			t.Errorf("%+v: source %d: rig %d instrs %d XTXNs, cost run %d instrs %d XTXNs",
				cfg, w, got[w].Instructions, got[w].XTXNs, want[w].Instructions, want[w].XTXNs)
		}
		instr += got[w].Instructions
	}
	f, err := packet.Decode(frames[cfg.Sources-1])
	if err != nil {
		t.Fatal(err)
	}
	sums, err := packet.Gradients(f.Payload, cfg.Grads)
	if err != nil || *f.ML != (*results)[0].hdr || !reflect.DeepEqual(sums, (*results)[0].grads) {
		t.Errorf("%+v: the cost run's result differs from the rig's (%v)", cfg, err)
	}

	cost, err := cfg.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if static != agg.Program.Len() || cost.StaticInstructions != static {
		t.Errorf("%+v: static: rig %d, cost run %d, Cost %d", cfg, agg.Program.Len(), static, cost.StaticInstructions)
	}
	if measured := float64(instr) / float64(cfg.Sources*cfg.Grads); cost.InstrPerGrad != measured {
		t.Errorf("%+v: Cost says %v instr/grad, rig %v", cfg, cost.InstrPerGrad, measured)
	}
	if pool := p.Mem.Alloc(smem.TierDRAM, 0) - agg.BufBase; cost.DRAMBytes != pool {
		t.Errorf("%+v: Cost says %d DRAM bytes, rig provisioned %d", cfg, cost.DRAMBytes, pool)
	}
}

// §6.3 conformance: at full fan-in and unroll, the aggregation data path
// retires ≈1.2 run-time instructions per gradient contribution, measured
// from Thread.Stats through the compiled dispatcher.
func TestMCAggInstrPerGradientNearPaper(t *testing.T) {
	cfg := MCAggConfig{Sources: 6, Slots: 16, Grads: 1024, Unroll: 16}
	eng, p, _, results := mcaggRig(t, cfg)
	per := mcaggInjectBlock(p, eng, cfg, 2)
	if len(*results) != 1 {
		t.Fatalf("results = %d", len(*results))
	}
	var total uint64
	for _, n := range per {
		total += n
	}
	measured := float64(total) / float64(cfg.Sources*cfg.Grads)
	cost, err := cfg.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if cost.InstrPerGrad != measured {
		t.Fatalf("Cost says %.3f instr/grad, measured %.3f", cost.InstrPerGrad, measured)
	}
	if measured < 1.0 || measured > 1.45 {
		t.Fatalf("instr/gradient = %.3f, want ≈1.2 (§6.3 band 1.0..1.45)", measured)
	}
	t.Logf("instr/gradient = %.3f", measured)
}

// Compiled dispatch must be bit-identical to the reference interpreter on
// the real aggregation workload: same results, same timestamps, same
// thread statistics — at every unroll factor, each of which must have its
// add loop lowered to a kernel of that many lanes.
func TestMCAggCompiledMatchesInterpreter(t *testing.T) {
	for _, u := range []int{1, 2, 4, 8, 16} {
		cfg := MCAggConfig{Sources: 3, Slots: 16, Grads: 1024, Unroll: u}
		engC, pC, aggC, resC := mcaggRig(t, cfg)
		engI, pI, aggI, resI := mcaggRig(t, cfg)
		pI.SetApp(pfe.Interpreted(aggI.App))
		kernel := fmt.Sprintf("loop kernel: head %d (add_loop) .. end %d (add_ctl), %d lanes, %d instructions per pass",
			mustLookup(t, aggC, "add_loop"), mustLookup(t, aggC, "add_ctl"), u, u+1)
		if dump := aggC.App.Compiled().DumpCompiled(); !strings.Contains(dump, kernel) {
			t.Fatalf("unroll %d: compiled listing lacks %q:\n%s", u, kernel, dump)
		}
		mcaggInjectBlock(pC, engC, cfg, 3)
		mcaggInjectBlock(pI, engI, cfg, 3)
		if aggC.App.Errors != 0 || aggI.App.Errors != 0 {
			t.Fatalf("unroll %d: errors: compiled %d, interpreter %d", u, aggC.App.Errors, aggI.App.Errors)
		}
		if !reflect.DeepEqual(*resC, *resI) {
			t.Fatalf("unroll %d: results diverge:\ncompiled:    %+v\ninterpreter: %+v", u, *resC, *resI)
		}
		if pC.Stats() != pI.Stats() {
			t.Fatalf("unroll %d: stats diverge:\ncompiled:    %+v\ninterpreter: %+v", u, pC.Stats(), pI.Stats())
		}
		if engC.Now() != engI.Now() {
			t.Fatalf("unroll %d: virtual clocks diverge: compiled %v, interpreter %v", u, engC.Now(), engI.Now())
		}
	}
}

func mustLookup(t *testing.T, agg *MCAgg, label string) int {
	t.Helper()
	pc, ok := agg.App.Compiled().Lookup(label)
	if !ok {
		t.Fatalf("label %q not in the compiled program", label)
	}
	return pc
}

// Every unroll factor computes the same sums; deeper unroll strictly
// reduces run-time instructions.
func TestMCAggUnrollVariantsAgree(t *testing.T) {
	var base []result
	var prevInstr uint64
	for _, u := range []int{1, 2, 4, 8, 16} {
		cfg := MCAggConfig{Sources: 3, Slots: 16, Grads: 256, Unroll: u}
		eng, p, agg, results := mcaggRig(t, cfg)
		mcaggInjectBlock(p, eng, cfg, 4)
		if agg.App.Errors != 0 {
			t.Fatalf("unroll %d: microcode errors: %d (%v)", u, agg.App.Errors, agg.App.LastError)
		}
		if len(*results) != 1 {
			t.Fatalf("unroll %d: results = %d", u, len(*results))
		}
		if u == 1 {
			base = *results
		} else if !reflect.DeepEqual((*results)[0].grads, base[0].grads) {
			t.Fatalf("unroll %d sums diverge from unroll 1", u)
		}
		instr := p.Stats().Instructions
		if u > 1 && instr >= prevInstr {
			t.Fatalf("unroll %d retired %d instrs, not fewer than previous %d", u, instr, prevInstr)
		}
		prevInstr = instr
	}
}

// BenchmarkMicrocodeDispatch compares the reference interpreter against the
// v2 compiled dispatcher on the real aggregation workload: a stream of
// 1024-gradient contributor packets through the mcagg program, one block at
// a time. Each iteration runs one whole PPE thread on the path
// pfe.MicrocodeApp.Process takes — one Thread reset per packet, on its
// microcode.ChipEnv, with no PFE around it — so allocs/op is the per-packet
// allocation count of that path (0); instrs/s is the dispatch throughput.
//
// The fan-in sets the mix. At 2 sources (mcagg-large's) every other packet
// opens a block and writes its chunks out, and the other adds into them and
// then runs the result loop; at 63 (the maximum) 62 of 63 packets take the
// add loop.
func BenchmarkMicrocodeDispatch(b *testing.B) {
	const grads = 1024
	for _, sources := range []int{2, 63} {
		b.Run(fmt.Sprintf("sources=%d", sources), func(b *testing.B) {
			benchmarkDispatch(b, grads, sources)
		})
	}
}

func benchmarkDispatch(b *testing.B, grads, sources int) {
	mem := smem.New(smem.Config{})
	recBase := mem.Alloc(smem.TierSRAM, 8*64)
	bufBase := mem.Alloc(smem.TierDRAM, 8*4*uint64(grads))
	cfg := MCAggConfig{Sources: sources, Slots: 8, Grads: grads}
	prog, err := MCAggProgram(cfg, recBase, bufBase)
	if err != nil {
		b.Fatal(err)
	}
	compiled := microcode.MustCompile(prog)
	frames := make([][]byte, sources)
	g := make([]int32, grads)
	for w := range frames {
		frames[w] = packet.BuildTrioML(packet.UDPSpec{SrcPort: 5000},
			packet.TrioML{JobID: 1, BlockID: 0, SrcID: uint8(w), GenID: 1}, g)
	}
	env := &microcode.ChipEnv{Mem: mem, Hash: hasheng.NewTable(hasheng.Config{})}

	run := func(b *testing.B, exec func(th *microcode.Thread) (microcode.Verdict, error)) {
		b.ReportAllocs()
		var instrs uint64
		var now sim.Time
		th := microcode.NewThread(env, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := frames[i%sources]
			env.Tail = f[192:]
			now += sim.Microsecond
			th.Reset(env, now)
			th.LoadHead(f[:192])
			if _, err := exec(th); err != nil {
				b.Fatal(err)
			}
			instrs += th.Stats.Instructions
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
	}
	b.Run("interpreter", func(b *testing.B) {
		run(b, func(th *microcode.Thread) (microcode.Verdict, error) {
			return microcode.Run(prog, th, "parse")
		})
	})
	b.Run("compiled", func(b *testing.B) {
		run(b, func(th *microcode.Thread) (microcode.Verdict, error) {
			return microcode.RunCompiled(compiled, th, "parse")
		})
	})
}
