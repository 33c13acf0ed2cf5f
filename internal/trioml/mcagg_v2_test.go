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

func mcaggInjectBlock(p *pfe.PFE, eng *sim.Engine, cfg MCAggConfig, block uint32) []uint64 {
	perPacket := make([]uint64, cfg.Sources)
	for w := 0; w < cfg.Sources; w++ {
		g := make([]int32, cfg.Grads)
		for i := range g {
			g[i] = int32((w*31+i*7)%997 - 498)
		}
		before := p.Stats().Instructions
		p.Inject(w%p.Cfg.NumPorts, uint64(w), mcaggPkt(w, block, g))
		eng.Run()
		perPacket[w] = p.Stats().Instructions - before
	}
	return perPacket
}

// The analytic cost model must predict measured Thread.Stats exactly for
// every contributor role, across gradient counts and unroll factors —
// that is what licenses progdse to prune on it without simulating.
func TestMCAggCostModelMatchesMeasured(t *testing.T) {
	for _, cfg := range []MCAggConfig{
		{Sources: 3, Slots: 16},
		{Sources: 3, Slots: 16, Grads: 64, Unroll: 2},
		{Sources: 3, Slots: 16, Grads: 256, Unroll: 4},
		{Sources: 4, Slots: 16, Grads: 1024, Unroll: 16},
	} {
		cfg = cfg.withDefaults()
		eng, p, agg, results := mcaggRig(t, cfg)
		cost := cfg.Cost()
		if agg.Program.Len() != cost.StaticInstructions {
			t.Fatalf("%+v: static = %d, model says %d", cfg, agg.Program.Len(), cost.StaticInstructions)
		}
		per := mcaggInjectBlock(p, eng, cfg, 1)
		if len(*results) != 1 {
			t.Fatalf("%+v: results = %d", cfg, len(*results))
		}
		if per[0] != uint64(cost.InstrFirstPacket) {
			t.Errorf("%+v: first packet = %d instrs, model says %d", cfg, per[0], cost.InstrFirstPacket)
		}
		for w := 1; w < cfg.Sources-1; w++ {
			if per[w] != uint64(cost.InstrOtherPacket) {
				t.Errorf("%+v: middle packet = %d instrs, model says %d", cfg, per[w], cost.InstrOtherPacket)
			}
		}
		if per[cfg.Sources-1] != uint64(cost.InstrFinalPacket) {
			t.Errorf("%+v: final packet = %d instrs, model says %d", cfg, per[cfg.Sources-1], cost.InstrFinalPacket)
		}
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
	if got := cfg.Cost().InstrPerGrad; got != measured {
		t.Fatalf("model says %.3f instr/grad, measured %.3f", got, measured)
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

// benchEnv is a minimal microcode.Env over real engine state, so the
// dispatch benchmark measures the execution engines themselves rather than
// PFE scheduling around them.
type benchEnv struct {
	mem   *smem.Memory
	hash  *hasheng.Table
	tail  []byte
	reply [smem.MaxTxnBytes]byte // MemRead staging, as pfe.MicrocodeApp has
}

func (e *benchEnv) MemRead(now sim.Time, addr uint64, size int) ([]byte, sim.Time) {
	return e.mem.ReadStaged(now, addr, size, &e.reply)
}
func (e *benchEnv) MemWrite(now sim.Time, addr uint64, data []byte) sim.Time {
	return e.mem.Write(now, addr, data)
}
func (e *benchEnv) CounterInc(now sim.Time, addr uint64, pktLen uint32) sim.Time {
	return e.mem.CounterInc(now, addr, pktLen)
}
func (e *benchEnv) ReadTail(now sim.Time, off, size int) ([]byte, sim.Time) {
	return microcode.ClipTail(e.tail, off, size), now
}
func (e *benchEnv) WriteTail(now sim.Time, off int, data []byte) sim.Time {
	if off >= 0 && off < len(e.tail) {
		copy(e.tail[off:], data)
	}
	return now
}
func (e *benchEnv) HashLookup(now sim.Time, key uint64) (uint64, bool, sim.Time) {
	return e.hash.Lookup(now, key)
}
func (e *benchEnv) HashInsert(now sim.Time, key, val uint64) (bool, sim.Time) {
	return e.hash.Insert(now, key, val)
}
func (e *benchEnv) HashDelete(now sim.Time, key uint64) (bool, sim.Time) {
	return e.hash.Delete(now, key)
}

// BenchmarkMicrocodeDispatch compares the reference interpreter against the
// v2 compiled dispatcher on the real aggregation workload: a stream of
// 1024-gradient contributor packets through the mcagg program. Each
// iteration runs one whole PPE thread on the path pfe.MicrocodeApp.Process
// takes — one Thread reset per packet, read replies staged in an Env-owned
// buffer — so allocs/op is the per-packet allocation count of that path
// (0); instrs/s is the dispatch throughput.
func BenchmarkMicrocodeDispatch(b *testing.B) {
	const grads = 1024
	const sources = 63 // max fan-in: 62 of 63 packets take the RMW loop
	mem := smem.New(smem.Config{})
	recBase := mem.Alloc(smem.TierSRAM, 8*64)
	bufBase := mem.Alloc(smem.TierDRAM, 8*4*grads)
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
	env := &benchEnv{mem: mem, hash: hasheng.NewTable(hasheng.Config{})}

	run := func(b *testing.B, exec func(th *microcode.Thread) (microcode.Verdict, error)) {
		b.ReportAllocs()
		var instrs uint64
		var now sim.Time
		th := microcode.NewThread(env, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := frames[i%sources]
			env.tail = f[192:]
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
