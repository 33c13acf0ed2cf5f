package pfe

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
)

type delivered struct {
	port  int
	frame []byte
	at    sim.Time
}

func collector(out *[]delivered) Output {
	return func(port int, frame []byte, at sim.Time) {
		*out = append(*out, delivered{port, frame, at})
	}
}

func frameOfSize(n int, tag byte) []byte {
	f := make([]byte, n)
	for i := range f {
		f[i] = tag
	}
	return f
}

func TestForwardDeliversFullFrame(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var got []delivered
	p.SetOutput(collector(&got))
	p.SetApp(AppFunc(func(ctx *Ctx) {
		ctx.ChargeInstr(10)
		ctx.Forward(3)
	}))
	frame := frameOfSize(500, 0xAB) // head 192 + tail 308
	p.Inject(0, 1, frame)
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d frames", len(got))
	}
	if got[0].port != 3 || len(got[0].frame) != 500 {
		t.Fatalf("delivered %d bytes on port %d", len(got[0].frame), got[0].port)
	}
	for i, b := range got[0].frame {
		if b != 0xAB {
			t.Fatalf("byte %d corrupted", i)
		}
	}
	st := p.Stats()
	if st.Dispatched != 1 || st.Forwarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDropProducesNoOutput(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var got []delivered
	p.SetOutput(collector(&got))
	p.SetApp(AppFunc(func(ctx *Ctx) { ctx.Drop() }))
	p.Inject(0, 1, frameOfSize(100, 1))
	eng.Run()
	if len(got) != 0 {
		t.Fatal("dropped packet egressed")
	}
	if p.Stats().Dropped != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestHeadTailSplitAt192(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var headLen, tailLen int
	p.SetApp(AppFunc(func(ctx *Ctx) {
		headLen, tailLen = len(ctx.Head()), ctx.TailLen()
		ctx.Drop()
	}))
	p.Inject(0, 1, frameOfSize(1000, 0))
	eng.Run()
	if headLen != 192 || tailLen != 808 {
		t.Fatalf("split = (%d,%d), want (192,808)", headLen, tailLen)
	}
}

func TestShortPacketIsAllHead(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var headLen, tailLen int
	p.SetApp(AppFunc(func(ctx *Ctx) {
		headLen, tailLen = len(ctx.Head()), ctx.TailLen()
		ctx.Drop()
	}))
	p.Inject(0, 1, frameOfSize(64, 0))
	eng.Run()
	if headLen != 64 || tailLen != 0 {
		t.Fatalf("split = (%d,%d)", headLen, tailLen)
	}
}

func TestReadTailChunks(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{})
	frame := make([]byte, 192+130)
	for i := range frame {
		frame[i] = byte(i)
	}
	var chunks [][]byte
	p.SetApp(AppFunc(func(ctx *Ctx) {
		// Fig. 10's loop: read the tail in 64-byte chunks.
		for off := 0; off < ctx.TailLen(); off += 64 {
			chunk := ctx.ReadTail(off, 64)
			chunks = append(chunks, append([]byte(nil), chunk...))
		}
		ctx.Consume()
	}))
	p.Inject(0, 1, frame)
	eng.Run()
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d", len(chunks))
	}
	if len(chunks[0]) != 64 || len(chunks[1]) != 64 || len(chunks[2]) != 2 {
		t.Fatalf("chunk sizes = %d,%d,%d", len(chunks[0]), len(chunks[1]), len(chunks[2]))
	}
	if chunks[0][0] != 192 || chunks[2][1] != byte((192+129)%256) {
		t.Fatal("tail bytes wrong")
	}
}

func TestHeadRewriteSurvivesForwarding(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var got []delivered
	p.SetOutput(collector(&got))
	p.SetApp(AppFunc(func(ctx *Ctx) {
		ctx.Head()[0] = 0xEE
		ctx.Forward(0)
	}))
	p.Inject(0, 1, frameOfSize(300, 0x11))
	eng.Run()
	if got[0].frame[0] != 0xEE {
		t.Fatal("head rewrite lost")
	}
	if got[0].frame[250] != 0x11 {
		t.Fatal("tail corrupted")
	}
}

func TestReorderEngineRestoresFlowOrder(t *testing.T) {
	// Packet A (slow processing) arrives before packet B (fast) on the same
	// flow; B must not egress before A.
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var got []delivered
	p.SetOutput(collector(&got))
	first := true
	p.SetApp(AppFunc(func(ctx *Ctx) {
		if first {
			first = false
			ctx.ChargeInstr(10000) // 200 µs
		} else {
			ctx.ChargeInstr(1)
		}
		ctx.Forward(0)
	}))
	p.Inject(0, 42, frameOfSize(100, 1))
	p.Inject(0, 42, frameOfSize(100, 2))
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d", len(got))
	}
	if got[0].frame[0] != 1 || got[1].frame[0] != 2 {
		t.Fatalf("flow order violated: %d then %d", got[0].frame[0], got[1].frame[0])
	}
	if got[1].at < got[0].at {
		t.Fatal("timestamps out of order")
	}
}

func TestDifferentFlowsMayReorder(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var got []delivered
	p.SetOutput(collector(&got))
	first := true
	p.SetApp(AppFunc(func(ctx *Ctx) {
		if first {
			first = false
			ctx.ChargeInstr(10000)
		} else {
			ctx.ChargeInstr(1)
		}
		ctx.Forward(0)
	}))
	p.Inject(0, 1, frameOfSize(100, 1)) // slow, flow 1
	p.Inject(0, 2, frameOfSize(100, 2)) // fast, flow 2
	eng.Run()
	if got[0].frame[0] != 2 {
		t.Fatal("fast packet on a different flow should egress first (run-to-completion, §1)")
	}
}

func TestDroppedPacketReleasesFlowOrder(t *testing.T) {
	// A dropped packet must not wedge its flow's reorder state.
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var got []delivered
	p.SetOutput(collector(&got))
	n := 0
	p.SetApp(AppFunc(func(ctx *Ctx) {
		n++
		if n == 1 {
			ctx.ChargeInstr(1000)
			ctx.Drop() // slow and dropped
			return
		}
		ctx.Forward(0)
	}))
	p.Inject(0, 9, frameOfSize(100, 1))
	p.Inject(0, 9, frameOfSize(100, 2))
	eng.Run()
	if len(got) != 1 || got[0].frame[0] != 2 {
		t.Fatalf("second packet not released: %d frames", len(got))
	}
}

func TestEgressSerializationDelay(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{PortBandwidth: 100_000_000_000})
	var got []delivered
	p.SetOutput(collector(&got))
	p.SetApp(AppFunc(func(ctx *Ctx) { ctx.Forward(0) }))
	p.Inject(0, 1, frameOfSize(1250, 0)) // 1250 B at 100 Gbps = 100 ns
	eng.Run()
	if got[0].at < 100*sim.Nanosecond {
		t.Fatalf("delivered at %v, want >= 100 ns serialization", got[0].at)
	}
}

func TestEgressQueueingBackToBack(t *testing.T) {
	// Two result emissions at the same instant serialize on the port.
	eng := sim.NewEngine()
	p := New(eng, Config{PortBandwidth: 100_000_000_000})
	var got []delivered
	p.SetOutput(collector(&got))
	p.SetApp(AppFunc(func(ctx *Ctx) {
		ctx.Emit(0, frameOfSize(12500, 1)) // 1 µs each
		ctx.Emit(0, frameOfSize(12500, 2))
		ctx.Consume()
	}))
	p.Inject(0, 1, frameOfSize(64, 0))
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("emitted %d", len(got))
	}
	gap := got[1].at - got[0].at
	if gap < 990*sim.Nanosecond {
		t.Fatalf("second frame departed only %v after first", gap)
	}
	if p.Stats().Emitted != 2 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestThreadPoolSaturationQueues(t *testing.T) {
	// With the pool full of long-running packets, one more packet must wait
	// for a thread, and MaxQueued must reflect it.
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var got []delivered
	var starts []sim.Time
	p.SetOutput(collector(&got))
	p.SetApp(AppFunc(func(ctx *Ctx) {
		starts = append(starts, ctx.Now())
		ctx.ChargeInstr(50) // 1 µs each
		ctx.Forward(0)
	}))
	for i := 0; i <= Threads; i++ {
		p.Inject(0, uint64(i+1), frameOfSize(100, byte(i)))
	}
	if p.BusyThreads() != Threads {
		t.Fatalf("busy = %d, want %d", p.BusyThreads(), Threads)
	}
	eng.Run()
	if len(got) != Threads+1 {
		t.Fatalf("delivered %d", len(got))
	}
	// The last packet started only when the first threads freed at 1 µs.
	if starts[Threads] != sim.Microsecond {
		t.Fatalf("last packet started at %v, want 1 µs", starts[Threads])
	}
	if p.Stats().MaxQueued != 1 {
		t.Fatalf("MaxQueued = %d, want 1", p.Stats().MaxQueued)
	}
}

func TestManyThreadsRunConcurrently(t *testing.T) {
	// 100 packets, 1 µs of compute each, on a big pool: all finish ≈1 µs,
	// not 100 µs (run-to-completion parallelism).
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var got []delivered
	p.SetOutput(collector(&got))
	p.SetApp(AppFunc(func(ctx *Ctx) {
		ctx.ChargeInstr(50)
		ctx.Forward(0)
	}))
	for i := 0; i < 100; i++ {
		p.Inject(0, uint64(i), frameOfSize(64, 0))
	}
	eng.Run()
	last := got[len(got)-1].at
	if last > 3*sim.Microsecond {
		t.Fatalf("last completion %v; pool not parallel", last)
	}
}

func TestTimerThreadsStaggered(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var firings []sim.Time
	var parts []int
	p.StartTimerThreads(4, 1000*sim.Nanosecond, func(ctx *Ctx, part int) {
		firings = append(firings, ctx.Now())
		parts = append(parts, part)
	})
	eng.RunUntil(999 * sim.Nanosecond)
	if len(firings) != 4 {
		t.Fatalf("firings in one period = %d, want 4", len(firings))
	}
	// Interarrival must be period/N = 250 ns (§5).
	for i := 1; i < 4; i++ {
		if gap := firings[i] - firings[i-1]; gap != 250*sim.Nanosecond {
			t.Fatalf("gap %d = %v, want 250 ns", i, gap)
		}
	}
	for i, pt := range parts {
		if pt != i {
			t.Fatalf("partition order = %v", parts)
		}
	}
}

func TestTimerThreadsShareThePool(t *testing.T) {
	// Timer work competes with packet work for threads: with the pool full
	// of long packets, the timer firing waits for a thread.
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var timerAt sim.Time
	p.StartTimerThreads(1, 100*sim.Nanosecond, func(ctx *Ctx, part int) {
		if timerAt == 0 {
			timerAt = ctx.Now()
		}
	})
	p.SetApp(AppFunc(func(ctx *Ctx) {
		ctx.ChargeInstr(100) // 2 µs
		ctx.Drop()
	}))
	for i := 0; i < Threads; i++ {
		p.Inject(0, 1, frameOfSize(64, 0))
	}
	eng.RunUntil(5 * sim.Microsecond)
	if timerAt != 2*sim.Microsecond {
		t.Fatalf("timer ran at %v, want 2 µs, when the pool frees", timerAt)
	}
}

func TestTimerStop(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{})
	count := 0
	stop := p.StartTimerThreads(1, 100*sim.Nanosecond, func(ctx *Ctx, part int) { count++ })
	eng.RunUntil(350 * sim.Nanosecond)
	stop.Stop()
	eng.RunUntil(10 * sim.Microsecond)
	if count != 4 {
		t.Fatalf("count = %d, want 4 firings (t=0,100,200,300) before stop", count)
	}
}

func TestTimerScanIntegration(t *testing.T) {
	// End-to-end §5 mechanism: insert records, run staggered timer threads
	// that clear/collect REF flags; untouched records age out within two
	// periods.
	eng := sim.NewEngine()
	p := New(eng, Config{})
	for k := uint64(0); k < 100; k++ {
		p.Hash.Insert(0, k, k)
	}
	var agedAt sim.Time
	aged := 0
	const parts = 10
	p.StartTimerThreads(parts, 1*sim.Millisecond, func(ctx *Ctx, part int) {
		ctx.ScanHashPartition(part, parts, func(key, val uint64, ref bool) hasheng.ScanAction {
			if !ref {
				aged++
				if agedAt == 0 {
					agedAt = ctx.Now()
				}
				return hasheng.ScanDelete
			}
			return hasheng.ScanClearRef
		})
	})
	eng.RunUntil(3 * sim.Millisecond)
	if aged != 100 {
		t.Fatalf("aged = %d, want 100", aged)
	}
	// Recovery within 2× the timeout interval (Fig. 14's bound).
	if agedAt > 2*sim.Millisecond {
		t.Fatalf("first aging at %v, want <= 2 ms", agedAt)
	}
	if p.Hash.Len() != 0 {
		t.Fatalf("records left: %d", p.Hash.Len())
	}
}

func TestMicrocodeAppOnPFE(t *testing.T) {
	prog := microcode.MustAssemble(`
program port_filter;
struct ether_t { dmac:48; smac:48; etype:16; };
layout ether : ether_t @ 0;
s: begin
    if (ether.etype == 0x0800) { exit(forward); }
    exit(drop);
end
`)
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var got []delivered
	p.SetOutput(collector(&got))
	app := &MicrocodeApp{Program: prog, EgressPort: 2}
	p.SetApp(app)

	ipv4 := frameOfSize(100, 0)
	ipv4[12], ipv4[13] = 0x08, 0x00
	arp := frameOfSize(100, 0)
	arp[12], arp[13] = 0x08, 0x06
	p.Inject(0, 1, ipv4)
	p.Inject(0, 2, arp)
	eng.Run()
	if len(got) != 1 || got[0].port != 2 {
		t.Fatalf("delivered %d frames", len(got))
	}
	st := p.Stats()
	if st.Forwarded != 1 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if app.Errors != 0 {
		t.Fatalf("microcode errors = %d", app.Errors)
	}
	if st.Instructions == 0 {
		t.Fatal("instruction accounting missing")
	}
}

// TestOneInstructionTimeAcrossEngines runs one program three ways: on the
// standalone interpreter (microcode.Run), hosted on a PFE (MicrocodeApp,
// which runs it compiled), and as a native app charging the same count
// through Ctx.ChargeInstr. All three advance virtual time by that count
// times microcode.InstrTime.
func TestOneInstructionTimeAcrossEngines(t *testing.T) {
	prog := microcode.MustAssemble(`
program countdown;
s: begin
    r1 = 5;
    goto loop;
end
loop: begin
    r1 = r1 - 1;
    if (r1 == 0) { exit(drop); }
    goto loop;
end
`)
	th := microcode.NewThread(nil, 0)
	if _, err := microcode.Run(prog, th, "s"); err != nil {
		t.Fatal(err)
	}
	n := th.Stats.Instructions
	want := sim.Time(n) * microcode.InstrTime
	if n < 2 || th.Now != want {
		t.Fatalf("standalone: %d instructions in %v, want %v", n, th.Now, want)
	}

	// run injects one packet at time 0 into a fresh PFE running app and
	// returns the thread's end time.
	run := func(app func(end *sim.Time) App) (sim.Time, Stats) {
		eng := sim.NewEngine()
		p := New(eng, Config{})
		var end sim.Time
		p.SetApp(app(&end))
		p.Inject(0, 1, frameOfSize(64, 0))
		eng.Run()
		return end, p.Stats()
	}
	hosted, st := run(func(end *sim.Time) App {
		return &MicrocodeApp{Program: prog, Finish: func(_ *microcode.Thread, ctx *Ctx, _ microcode.Verdict) { *end = ctx.Now() }}
	})
	if hosted != want || st.Instructions != n {
		t.Fatalf("hosted: %d instructions in %v, want %d in %v", st.Instructions, hosted, n, want)
	}
	native, st := run(func(end *sim.Time) App {
		return AppFunc(func(ctx *Ctx) {
			ctx.ChargeInstr(int(n))
			*end = ctx.Now()
			ctx.Drop()
		})
	})
	if native != want || st.Instructions != n {
		t.Fatalf("native: %d instructions in %v, want %d in %v", st.Instructions, native, n, want)
	}
}

// A program the verifier rejects is an install error even when the installer
// skipped Compile: the packet drops before any instruction runs. This one
// would run to a verdict under the interpreter (r1 starts at 0, so the packet
// never takes the fall-through arm that Verify rejects).
func TestMicrocodeAppRejectedProgramDrops(t *testing.T) {
	prog := microcode.MustAssemble(`
program falls_off;
s: begin
    if (r1 == 0) { exit(forward); }
end
`)
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var got []delivered
	p.SetOutput(collector(&got))
	app := &MicrocodeApp{Program: prog, EgressPort: 1}
	p.SetApp(app)
	p.Inject(0, 1, frameOfSize(100, 0))
	eng.Run()
	if len(got) != 0 {
		t.Fatalf("delivered %d frames from a rejected program", len(got))
	}
	st := p.Stats()
	if st.Dropped != 1 || st.Instructions != 0 {
		t.Fatalf("stats = %+v, want 1 drop and 0 instructions", st)
	}
	if app.Errors != 1 || app.LastError == nil {
		t.Fatalf("errors = %d, last error = %v", app.Errors, app.LastError)
	}
	if app.Compiled() != nil {
		t.Fatal("rejected program compiled")
	}
}

func TestInjectInvalidPortPanics(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{NumPorts: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Inject(4, 1, frameOfSize(64, 0))
}

func TestNoAppDropsPackets(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{})
	p.Inject(0, 1, frameOfSize(64, 0))
	eng.Run()
	if p.Stats().Dropped != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestPortStatsAndUtilization(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{PortBandwidth: 100_000_000_000})
	p.SetOutput(func(int, []byte, sim.Time) {})
	p.SetApp(AppFunc(func(ctx *Ctx) { ctx.Forward(2) }))
	for i := 0; i < 10; i++ {
		p.Inject(0, uint64(i), frameOfSize(12500, 0)) // 1 µs serialization each
	}
	eng.Run()
	st := p.PortStats(2)
	if st.Frames != 10 || st.Bytes != 125000 {
		t.Fatalf("port stats = %+v", st)
	}
	if st.Busy != 10*sim.Microsecond {
		t.Fatalf("busy = %v", st.Busy)
	}
	if now := eng.Now(); st.Busy*2 <= now || st.Busy > now {
		t.Fatalf("port busy %v of %v (back-to-back frames should keep the port busy)", st.Busy, now)
	}
	if p.PortStats(3).Frames != 0 {
		t.Fatal("idle port has frames")
	}
}

func TestMicrocodeAppEgressReg(t *testing.T) {
	// The program computes its own egress port into r5; EgressReg routes the
	// forward verdict through it instead of the fixed EgressPort.
	prog := microcode.MustAssemble(`
program dynegress;
reg port = r5;
s: begin
    port = 3;
    exit(forward);
end
`)
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var got []delivered
	p.SetOutput(collector(&got))
	app := &MicrocodeApp{Program: prog, EgressPort: 1, EgressReg: 5}
	p.SetApp(app)
	p.Inject(0, 1, frameOfSize(100, 0))
	eng.Run()
	if app.Errors != 0 {
		t.Fatalf("microcode errors = %d (%v)", app.Errors, app.LastError)
	}
	if len(got) != 1 || got[0].port != 3 {
		t.Fatalf("delivered = %+v, want 1 frame on port 3", got)
	}
}

func TestMicrocodeAppFinishFanout(t *testing.T) {
	// The program consumes the packet after staging a waiter count in r4; the
	// Finish hook replicates a reply per waiter — the MQSS-style replication
	// hand-off netrpc's coalesced fanout uses.
	prog := microcode.MustAssemble(`
program fanout;
reg waiters = r4;
s: begin
    waiters = 3;
    exit(consume);
end
`)
	eng := sim.NewEngine()
	p := New(eng, Config{})
	var got []delivered
	p.SetOutput(collector(&got))
	app := &MicrocodeApp{Program: prog, EgressPort: 1}
	app.Finish = func(th *microcode.Thread, ctx *Ctx, v microcode.Verdict) {
		if v != microcode.VerdictConsume {
			t.Fatalf("finish verdict = %v", v)
		}
		for i := uint64(0); i < th.Regs[4]; i++ {
			ctx.Emit(2, frameOfSize(64, byte(i)))
		}
	}
	p.SetApp(app)
	p.Inject(0, 1, frameOfSize(100, 0))
	eng.Run()
	if app.Errors != 0 {
		t.Fatalf("microcode errors = %d (%v)", app.Errors, app.LastError)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d frames, want 3 fanout replies", len(got))
	}
	for i, d := range got {
		if d.port != 2 || d.frame[0] != byte(i) {
			t.Fatalf("reply %d = port %d tag %d", i, d.port, d.frame[0])
		}
	}
}

// A tail offset computed by the program can be negative (mcagg's
// `toff = k*64 - 138` is, for k < 3). It used to slice tail[-10:...], a Go
// runtime panic that RunCompiledLimited re-raises: one bad program killed the
// whole simulation. It must read nothing, like a write there writes nothing.
func TestMicrocodeNegativeTailOffset(t *testing.T) {
	prog := microcode.MustAssemble(`
program negtail;
s: begin
    r15 = 2;
    lmem64[320] = 0x1122334455667788;
    goto calc;
end
calc: begin
    r16 = r15 * 64 - 138;
    goto rd;
end
rd: begin
    tail_read(r16, 64, 320);
    goto wr;
end
wr: begin
    tail_write(r16, 64, 320);
    exit(forward);
end
`)
	for _, interpret := range []bool{false, true} {
		eng := sim.NewEngine()
		p := New(eng, Config{})
		var got []delivered
		p.SetOutput(collector(&got))
		app := &MicrocodeApp{Program: prog, EgressPort: 1}
		var off, staged uint64
		app.Finish = func(th *microcode.Thread, ctx *Ctx, v microcode.Verdict) {
			off, staged = th.Regs[16], binary.BigEndian.Uint64(th.LMem[320:])
		}
		if interpret {
			p.SetApp(Interpreted(app))
		} else {
			p.SetApp(app)
		}
		frame := frameOfSize(400, 7)
		p.Inject(0, 1, frame)
		eng.Run()
		if app.Errors != 0 {
			t.Fatalf("interpret=%v: microcode errors = %d (%v)", interpret, app.Errors, app.LastError)
		}
		if int64(off) != -10 {
			t.Fatalf("interpret=%v: tail offset = %d, want -10", interpret, int64(off))
		}
		if staged != 0x1122334455667788 {
			t.Fatalf("interpret=%v: a read at a negative tail offset returned data: %#x", interpret, staged)
		}
		if len(got) != 1 || !bytes.Equal(got[0].frame, frame) {
			t.Fatalf("interpret=%v: packet not forwarded unchanged", interpret)
		}
	}

	// The native accessor clips the same way.
	eng := sim.NewEngine()
	p := New(eng, Config{})
	p.SetApp(AppFunc(func(ctx *Ctx) {
		if b := ctx.ReadTail(-10, 64); len(b) != 0 {
			t.Errorf("ReadTail(-10, 64) = %d bytes", len(b))
		}
		if b := ctx.ReadTail(ctx.TailLen()-8, 64); len(b) != 8 {
			t.Errorf("short read at the end = %d bytes, want 8", len(b))
		}
		if b := ctx.ReadTail(ctx.TailLen()+1, 64); len(b) != 0 {
			t.Errorf("read past the end = %d bytes", len(b))
		}
	}))
	p.Inject(0, 1, frameOfSize(400, 0))
	eng.Run()
}

func TestSetFaultsStallsEachThread(t *testing.T) {
	deliver := func(plan *faults.Plan) (sim.Time, int) {
		eng := sim.NewEngine()
		p := New(eng, Config{})
		p.SetFaults(plan.PFE(0))
		var got []delivered
		p.SetOutput(collector(&got))
		p.SetApp(AppFunc(func(ctx *Ctx) { ctx.Forward(1) }))
		p.Inject(0, 1, frameOfSize(64, 0))
		eng.Run()
		return got[0].at, len(got)
	}
	clean, _ := deliver(nil)
	plan := faults.NewPlan(1, faults.Config{PFE: faults.PFEConfig{StallProb: 1}})
	stalled, n := deliver(plan)
	st := plan.Stats()
	if st.PPEStalls != 1 || st.PPEStallNs < uint64(10*sim.Microsecond) || st.PPEStallNs > uint64(100*sim.Microsecond) {
		t.Fatalf("plan stats = %+v, want one stall of 10 to 100µs", st)
	}
	if n != 1 || stalled-clean != sim.Time(st.PPEStallNs) {
		t.Fatalf("stalled delivery at %v (%d frames), clean at %v: want exactly the %vns stall later", stalled, n, clean, st.PPEStallNs)
	}
}
