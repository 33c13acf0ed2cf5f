package microcode

import (
	"errors"
	"testing"

	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/smem"
)

// newChipEnv is a ChipEnv over fresh shared memory and hash engine, no tail.
func newChipEnv() *ChipEnv {
	return &ChipEnv{Mem: smem.New(smem.Config{}), Hash: hasheng.NewTable(hasheng.Config{})}
}

func run(t *testing.T, p *Program, th *Thread, entry string) Verdict {
	t.Helper()
	v, err := Run(p, th, entry)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestMoveImmediateToRegister(t *testing.T) {
	p := MustProgram("t", []Instruction{{
		Label: "start",
		Moves: []MoveOp{{Dst: R(5), A: Imm64(0xABCD), Fn: Pass}},
		Br:    Branch{Default: Action{Kind: ActExit, Verdict: VerdictForward}},
	}})
	th := NewThread(nil, 0)
	run(t, p, th, "start")
	if th.Regs[5] != 0xABCD {
		t.Fatalf("r5 = %#x", th.Regs[5])
	}
}

func TestALUFunctions(t *testing.T) {
	cases := []struct {
		fn   ALUFn
		a, b uint64
		want uint64
	}{
		{Add, 3, 4, 7},
		{Sub, 3, 4, ^uint64(0)}, // wraparound
		{And, 0b1100, 0b1010, 0b1000},
		{Or, 0b1100, 0b1010, 0b1110},
		{Xor, 0b1100, 0b1010, 0b0110},
		{Shl, 1, 12, 4096},
		{Shr, 4096, 12, 1},
		{Mul, 7, 6, 42},
		{Pass, 99, 0, 99},
	}
	for _, c := range cases {
		p := MustProgram("t", []Instruction{{
			Label: "s",
			Moves: []MoveOp{{Dst: R(0), A: Imm64(c.a), B: Imm64(c.b), Fn: c.fn}},
			Br:    Branch{Default: Action{Kind: ActExit, Verdict: VerdictDrop}},
		}})
		th := NewThread(nil, 0)
		run(t, p, th, "s")
		if th.Regs[0] != c.want {
			t.Errorf("%v(%d,%d) = %d, want %d", c.fn, c.a, c.b, th.Regs[0], c.want)
		}
	}
}

func TestRegisterBitFieldOperands(t *testing.T) {
	p := MustProgram("t", []Instruction{{
		Label: "s",
		Moves: []MoveOp{
			// r1[8:16) <- 0xFF; then r2 <- r1[12:4)
			{Dst: RField(1, 8, 16), A: Imm64(0xBEEF), Fn: Pass},
		},
		Br: Branch{Default: Action{Kind: ActGoto, Target: "s2"}},
	}, {
		Label: "s2",
		Moves: []MoveOp{{Dst: R(2), A: RField(1, 12, 8), Fn: Pass}},
		Br:    Branch{Default: Action{Kind: ActExit, Verdict: VerdictForward}},
	}})
	th := NewThread(nil, 0)
	th.Regs[1] = 0xFFFF_FFFF_0000_00FF
	run(t, p, th, "s")
	if th.Regs[1] != 0xFFFF_FFFF_00BE_EFFF {
		t.Fatalf("r1 = %#x", th.Regs[1])
	}
	if th.Regs[2] != 0xEE {
		t.Fatalf("r2 = %#x", th.Regs[2])
	}
}

func TestLMemOperands(t *testing.T) {
	p := MustProgram("t", []Instruction{{
		Label: "s",
		Moves: []MoveOp{
			{Dst: L(16, 16), A: Imm64(0x0800), Fn: Pass},
			{Dst: R(0), A: L(16, 16), Fn: Pass}, // cascaded: sees the write above
		},
		Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictForward}},
	}})
	th := NewThread(nil, 0)
	run(t, p, th, "s")
	if th.LMem[2] != 0x08 || th.LMem[3] != 0x00 {
		t.Fatalf("lmem = % x", th.LMem[:4])
	}
	if th.Regs[0] != 0x0800 {
		t.Fatalf("r0 = %#x", th.Regs[0])
	}
}

func TestConditionalBranchTaken(t *testing.T) {
	p := MustProgram("t", []Instruction{{
		Label: "s",
		Conds: []CondOp{{A: R(1), B: Imm64(10), Cmp: Lt, Idx: 0}},
		Br: Branch{
			Cases:   []BranchCase{{Mask: 1, Want: 1, Act: Action{Kind: ActExit, Verdict: VerdictForward}}},
			Default: Action{Kind: ActExit, Verdict: VerdictDrop},
		},
	}})
	th := NewThread(nil, 0)
	th.Regs[1] = 5
	if v := run(t, p, th, "s"); v != VerdictForward {
		t.Fatalf("taken branch verdict = %v", v)
	}
	th2 := NewThread(nil, 0)
	th2.Regs[1] = 50
	if v := run(t, p, th2, "s"); v != VerdictDrop {
		t.Fatalf("untaken branch verdict = %v", v)
	}
}

func TestMultiWayBranchOrder(t *testing.T) {
	// Three cases on two condition bits; first match wins.
	p := MustProgram("t", []Instruction{{
		Label: "s",
		Conds: []CondOp{
			{A: R(0), B: Imm64(1), Cmp: Eq, Idx: 0},
			{A: R(1), B: Imm64(1), Cmp: Eq, Idx: 1},
		},
		Br: Branch{
			Cases: []BranchCase{
				{Mask: 0b01, Want: 0b01, Act: Action{Kind: ActGoto, Target: "a"}},
				{Mask: 0b10, Want: 0b10, Act: Action{Kind: ActGoto, Target: "b"}},
			},
			Default: Action{Kind: ActGoto, Target: "c"},
		},
	},
		{Label: "a", Moves: []MoveOp{{Dst: R(9), A: Imm64(1), Fn: Pass}}, Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictForward}}},
		{Label: "b", Moves: []MoveOp{{Dst: R(9), A: Imm64(2), Fn: Pass}}, Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictForward}}},
		{Label: "c", Moves: []MoveOp{{Dst: R(9), A: Imm64(3), Fn: Pass}}, Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictForward}}},
	})
	for _, c := range []struct {
		r0, r1, want uint64
	}{{1, 1, 1}, {1, 0, 1}, {0, 1, 2}, {0, 0, 3}} {
		th := NewThread(nil, 0)
		th.Regs[0], th.Regs[1] = c.r0, c.r1
		run(t, p, th, "s")
		if th.Regs[9] != c.want {
			t.Errorf("(%d,%d) -> %d, want %d", c.r0, c.r1, th.Regs[9], c.want)
		}
	}
}

func TestCallReturnNesting(t *testing.T) {
	p := MustProgram("t", []Instruction{
		{Label: "main", Br: Branch{Default: Action{Kind: ActCall, Target: "sub1"}}},
		{Label: "after", Moves: []MoveOp{{Dst: R(0), A: R(0), B: Imm64(100), Fn: Add}},
			Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictForward}}},
		{Label: "sub1", Moves: []MoveOp{{Dst: R(0), A: R(0), B: Imm64(1), Fn: Add}},
			Br: Branch{Default: Action{Kind: ActCall, Target: "sub2"}}},
		{Label: "ret1", Br: Branch{Default: Action{Kind: ActReturn}}},
		{Label: "sub2", Moves: []MoveOp{{Dst: R(0), A: R(0), B: Imm64(10), Fn: Add}},
			Br: Branch{Default: Action{Kind: ActReturn}}},
	})
	th := NewThread(nil, 0)
	run(t, p, th, "main")
	// main -> sub1 (+1) -> sub2 (+10) -> ret to ret1 -> return to after (+100)
	if th.Regs[0] != 111 {
		t.Fatalf("r0 = %d, want 111", th.Regs[0])
	}
}

func TestCallDepthLimit(t *testing.T) {
	p := MustProgram("t", []Instruction{
		{Label: "rec", Br: Branch{Default: Action{Kind: ActCall, Target: "rec"}}},
	})
	th := NewThread(nil, 0)
	_, err := Run(p, th, "rec")
	if !errors.Is(err, ErrCallDepth) {
		t.Fatalf("err = %v, want call depth", err)
	}
}

func TestReturnWithEmptyStackErrors(t *testing.T) {
	p := MustProgram("t", []Instruction{{Label: "s", Br: Branch{Default: Action{Kind: ActReturn}}}})
	_, err := Run(p, NewThread(nil, 0), "s")
	if !errors.Is(err, ErrRetEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestInstructionBudget(t *testing.T) {
	p := MustProgram("t", []Instruction{{Label: "loop", Br: Branch{Default: Action{Kind: ActGoto, Target: "loop"}}}})
	_, err := RunLimited(p, NewThread(nil, 0), "loop", 100)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v", err)
	}
}

func TestFallthroughPastEndErrors(t *testing.T) {
	p := MustProgram("t", []Instruction{{Label: "s", Br: Branch{Default: Action{Kind: ActFallthrough}}}})
	_, err := Run(p, NewThread(nil, 0), "s")
	if !errors.Is(err, ErrFellOff) {
		t.Fatalf("err = %v", err)
	}
}

func TestInstructionTimingCharged(t *testing.T) {
	p := MustProgram("t", []Instruction{
		{Label: "a", Br: Branch{Default: Action{Kind: ActGoto, Target: "b"}}},
		{Label: "b", Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictDrop}}},
	})
	th := NewThread(nil, 100)
	run(t, p, th, "a")
	// Two instructions at InstrTime = 20 cycles × 1 ns.
	if th.Now != 140 {
		t.Fatalf("now = %v, want 140", th.Now)
	}
	if th.Stats.Instructions != 2 {
		t.Fatalf("instructions = %d", th.Stats.Instructions)
	}
}

func TestSyncXTXNStallsThread(t *testing.T) {
	env := newChipEnv()
	addr := env.Mem.Alloc(smem.TierDRAM, 64)
	env.Mem.WriteRaw(addr, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	p := MustProgram("t", []Instruction{{
		Label: "s",
		XTXNs: []XTXN{{Kind: XTXNMemRead, Addr: Imm64(addr), Size: 8, LMemOff: 100}},
		Br:    Branch{Default: Action{Kind: ActExit, Verdict: VerdictConsume}},
	}})
	th := NewThread(env, 0)
	run(t, p, th, "s")
	if th.LMem[100] != 1 || th.LMem[107] != 8 {
		t.Fatalf("lmem = % x", th.LMem[100:108])
	}
	// DRAM access ≈400 ns must have stalled the thread.
	if th.Stats.SyncStall < 390*sim.Nanosecond {
		t.Fatalf("sync stall = %v", th.Stats.SyncStall)
	}
	if th.Now < 400*sim.Nanosecond {
		t.Fatalf("now = %v", th.Now)
	}
}

func TestAsyncXTXNDoesNotStall(t *testing.T) {
	env := newChipEnv()
	addr := env.Mem.Alloc(smem.TierDRAM, 16)
	p := MustProgram("t", []Instruction{{
		Label: "s",
		XTXNs: []XTXN{{Kind: XTXNCounterInc, Addr: Imm64(addr), Len: Imm64(1500), Async: true}},
		Br:    Branch{Default: Action{Kind: ActExit, Verdict: VerdictDrop}},
	}})
	th := NewThread(env, 0)
	run(t, p, th, "s")
	if th.Stats.SyncStall != 0 {
		t.Fatalf("async op stalled: %v", th.Stats.SyncStall)
	}
	if pkts, bytes := env.Mem.Counter(addr); pkts != 1 || bytes != 1500 {
		t.Fatalf("counter = (%d,%d)", pkts, bytes)
	}
}

func TestHashXTXNsSetHitCondition(t *testing.T) {
	env := newChipEnv()
	p := MustProgram("t", []Instruction{{
		Label: "ins",
		XTXNs: []XTXN{{Kind: XTXNHashInsert, Addr: R(0), Len: R(1)}},
		Br:    Branch{Default: Action{Kind: ActGoto, Target: "look"}},
	}, {
		Label: "look",
		XTXNs: []XTXN{{Kind: XTXNHashLookup, Addr: R(0)}},
		Br: Branch{
			Cases:   []BranchCase{{Mask: 1 << XTXNHitCond, Want: 1 << XTXNHitCond, Act: Action{Kind: ActGoto, Target: "hitpath"}}},
			Default: Action{Kind: ActExit, Verdict: VerdictDrop},
		},
	}, {
		Label: "hitpath",
		Moves: []MoveOp{{Dst: R(2), A: R(XTXNReplyReg), Fn: Pass}},
		Br:    Branch{Default: Action{Kind: ActExit, Verdict: VerdictForward}},
	}, {
		Label: "miss",
		XTXNs: []XTXN{{Kind: XTXNHashLookup, Addr: Imm64(9999)}},
		Br: Branch{
			Cases:   []BranchCase{{Mask: 1 << XTXNHitCond, Want: 0, Act: Action{Kind: ActExit, Verdict: VerdictConsume}}},
			Default: Action{Kind: ActExit, Verdict: VerdictDrop},
		},
	}})
	th := NewThread(env, 0)
	th.Regs[0], th.Regs[1] = 77, 4242
	if v := run(t, p, th, "ins"); v != VerdictForward {
		t.Fatalf("verdict = %v", v)
	}
	if th.Regs[2] != 4242 {
		t.Fatalf("reply = %d", th.Regs[2])
	}
	if v := run(t, p, NewThread(env, 0), "miss"); v != VerdictConsume {
		t.Fatal("miss path not taken")
	}
}

func TestReadTailXTXN(t *testing.T) {
	env := &ChipEnv{Tail: []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}}
	p := MustProgram("t", []Instruction{{
		Label: "s",
		XTXNs: []XTXN{{Kind: XTXNReadTail, Addr: Imm64(2), Size: 4, LMemOff: 200}},
		Br:    Branch{Default: Action{Kind: ActExit, Verdict: VerdictConsume}},
	}})
	th := NewThread(env, 0)
	run(t, p, th, "s")
	if th.LMem[200] != 7 || th.LMem[203] != 4 {
		t.Fatalf("lmem = % x", th.LMem[200:204])
	}
}

func TestLoadHeadTooBigPanics(t *testing.T) {
	th := NewThread(nil, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	th.LoadHead(make([]byte, LMemBytes+1))
}

func TestValidationRejectsExcessRegReads(t *testing.T) {
	_, err := NewProgram("t", []Instruction{{
		Label: "s",
		Moves: []MoveOp{{Dst: R(0), A: R(1), B: R(2), Fn: Add}},
		Conds: []CondOp{
			{A: R(3), B: R(4), Cmp: Eq, Idx: 0},
			{A: R(5), B: Imm64(0), Cmp: Eq, Idx: 1},
		},
		Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictDrop}},
	}})
	if err == nil {
		t.Fatal("5 register reads accepted")
	}
}

func TestValidationRejectsExcessWrites(t *testing.T) {
	_, err := NewProgram("t", []Instruction{{
		Label: "s",
		Moves: []MoveOp{
			{Dst: R(0), A: Imm64(1), Fn: Pass},
			{Dst: R(1), A: Imm64(1), Fn: Pass},
			{Dst: R(2), A: Imm64(1), Fn: Pass},
		},
		Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictDrop}},
	}})
	if err == nil {
		t.Fatal("3 writes accepted")
	}
}

func TestValidationRejectsExcessLMemReads(t *testing.T) {
	_, err := NewProgram("t", []Instruction{{
		Label: "s",
		Conds: []CondOp{
			{A: L(0, 8), B: L(8, 8), Cmp: Eq, Idx: 0},
			{A: L(16, 8), B: Imm64(0), Cmp: Eq, Idx: 1},
		},
		Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictDrop}},
	}})
	if err == nil {
		t.Fatal("3 local memory reads accepted")
	}
}

func TestValidationRejectsUndefinedLabel(t *testing.T) {
	_, err := NewProgram("t", []Instruction{{
		Label: "s",
		Br:    Branch{Default: Action{Kind: ActGoto, Target: "nowhere"}},
	}})
	if err == nil {
		t.Fatal("undefined label accepted")
	}
}

func TestValidationRejectsDuplicateLabel(t *testing.T) {
	mk := func(l string) Instruction {
		return Instruction{Label: l, Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictDrop}}}
	}
	if _, err := NewProgram("t", []Instruction{mk("a"), mk("a")}); err == nil {
		t.Fatal("duplicate label accepted")
	}
}

func TestValidationRejectsWideBranch(t *testing.T) {
	in := Instruction{Label: "s", Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictDrop}}}
	for i := 0; i < MaxBranchWays; i++ {
		in.Br.Cases = append(in.Br.Cases, BranchCase{Act: Action{Kind: ActExit, Verdict: VerdictDrop}})
	}
	if _, err := NewProgram("t", []Instruction{in}); err == nil {
		t.Fatal("9-way branch accepted")
	}
}

func TestValidationRejectsBadRegister(t *testing.T) {
	_, err := NewProgram("t", []Instruction{{
		Label: "s",
		Moves: []MoveOp{{Dst: R(NumRegs), A: Imm64(0), Fn: Pass}},
		Br:    Branch{Default: Action{Kind: ActExit, Verdict: VerdictDrop}},
	}})
	if err == nil {
		t.Fatal("r32 accepted")
	}
}

func TestValidationRejectsOversizeXTXNWindow(t *testing.T) {
	_, err := NewProgram("t", []Instruction{{
		Label: "s",
		XTXNs: []XTXN{{Kind: XTXNMemRead, Addr: Imm64(0), Size: 64, LMemOff: LMemBytes - 32}},
		Br:    Branch{Default: Action{Kind: ActExit, Verdict: VerdictDrop}},
	}})
	if err == nil {
		t.Fatal("LMEM overflow window accepted")
	}
}

func BenchmarkMicrocodeFilterProgram(b *testing.B) {
	prog := MustAssemble(`
s: begin
    r0 = r1 + 2;
    if (r0 == 7) { exit(forward); }
    exit(drop);
end
`)
	env := newChipEnv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		th := NewThread(env, 0)
		th.Regs[1] = 5
		if _, err := Run(prog, th, "s"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestThreadResetMatchesNewThread(t *testing.T) {
	env := newChipEnv()
	th := NewThread(env, 7)
	th.LMem[0], th.LMem[LMemBytes-1] = 1, 2
	th.Regs[3] = 9
	th.Stats = Stats{Instructions: 4, XTXNs: 1, SyncStall: 3}
	th.TracePC = func(int) {}
	th.conds = 1
	th.stack = append(th.stack, 1, 2)
	stack := &th.stack[:1][0]

	other := newChipEnv()
	th.Reset(other, 42)
	if th.LMem != ([LMemBytes]byte{}) || th.Regs != ([NumRegs]uint64{}) || th.Stats != (Stats{}) {
		t.Fatal("reset left local memory, registers or statistics behind")
	}
	if th.Env != Env(other) || th.Now != 42 || th.TracePC != nil || th.conds != 0 || len(th.stack) != 0 {
		t.Fatalf("reset thread: env %v now %v trace %v conds %d stack %v", th.Env, th.Now, th.TracePC != nil, th.conds, th.stack)
	}
	if &th.stack[:1][0] != stack {
		t.Fatal("reset dropped the call stack's storage")
	}
}
