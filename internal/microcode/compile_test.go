package microcode

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// ---- cross-check: reference interpreter vs compiled dispatch ----

// crossCheck runs src on both engines from identical initial state, once
// with TracePC set (the compiled engine steps every instruction, and the pc
// sequences must match) and once without (lowered loops run in their
// kernels), and insists every observable is bit-identical each time.
func crossCheck(t *testing.T, name, src string, init func(th *Thread, env *ChipEnv)) {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("%s: assemble: %v", name, err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	for _, traced := range []bool{true, false} {
		diffEngines(t, name, p, c, p.Instrs[0].Label, DefaultBudget, traced, init)
	}
}

// diffEngines runs p on the reference interpreter and c on the compiled
// dispatcher from the state init builds, under the same budget, and fails on
// any difference in verdict, error text, Stats, Now, registers, condition
// bits, local memory, packet tail or (when traced) pc sequence. It returns
// the interpreter's thread and error.
func diffEngines(t *testing.T, name string, p *Program, c *Compiled, entry string, budget uint64, traced bool, init func(th *Thread, env *ChipEnv)) (*Thread, error) {
	t.Helper()
	mk := func() (*Thread, *ChipEnv) {
		env := newChipEnv()
		th := NewThread(env, 0)
		if init != nil {
			init(th, env)
		}
		return th, env
	}
	thI, envI := mk()
	thC, envC := mk()
	var traceI, traceC []int
	if traced {
		thI.TracePC = func(pc int) { traceI = append(traceI, pc) }
		thC.TracePC = func(pc int) { traceC = append(traceC, pc) }
	}
	name = fmt.Sprintf("%s (budget %d, traced %v)", name, budget, traced)

	vI, errI := RunLimited(p, thI, entry, budget)
	vC, errC := RunCompiledLimited(c, thC, entry, budget)

	if vI != vC {
		t.Fatalf("%s: verdict %v (interp) != %v (compiled)", name, vI, vC)
	}
	if fmt.Sprint(errI) != fmt.Sprint(errC) {
		t.Fatalf("%s: err %q (interp) != %q (compiled)", name, errI, errC)
	}
	if thI.Stats != thC.Stats {
		t.Fatalf("%s: stats %+v (interp) != %+v (compiled)", name, thI.Stats, thC.Stats)
	}
	if thI.Now != thC.Now {
		t.Fatalf("%s: now %v (interp) != %v (compiled)", name, thI.Now, thC.Now)
	}
	if thI.Regs != thC.Regs {
		t.Fatalf("%s: register files diverge:\n%v\n%v", name, thI.Regs, thC.Regs)
	}
	if thI.conds != thC.conds {
		t.Fatalf("%s: conds %#x (interp) != %#x (compiled)", name, thI.conds, thC.conds)
	}
	if thI.LMem != thC.LMem {
		t.Fatalf("%s: local memories diverge", name)
	}
	if len(traceI) != len(traceC) {
		t.Fatalf("%s: trace length %d (interp) != %d (compiled)", name, len(traceI), len(traceC))
	}
	for i := range traceI {
		if traceI[i] != traceC[i] {
			t.Fatalf("%s: instruction %d: pc %d (interp) != %d (compiled)", name, i, traceI[i], traceC[i])
		}
	}
	if string(envI.Tail) != string(envC.Tail) {
		t.Fatalf("%s: packet tails diverge", name)
	}
	return thI, errI
}

func ipv4Head() []byte {
	head := make([]byte, 64)
	head[12], head[13] = 0x08, 0x00 // EtherType IPv4
	head[14] = 0x45                 // ver=4 ihl=5
	return head
}

// fusedMoveSources pin the fused move shapes against the interpreter, and
// FuzzAssemble seeds its corpus with them. Each program writes the bytes it
// copies, so it shows a difference from a zeroed thread too.
var fusedMoveSources = []struct{ name, src string }{
	// lmem64 = lmem64 with overlapping windows, the destination after the
	// source (a forward byte-by-byte copy smears it) and before it, at byte
	// offsets that are not multiples of 8; the second copy of "back" reads
	// bytes the first one just wrote (the Move ALUs cascade).
	{"copy64_overlap", `
s: begin
    lmem64[0] = 0x0102030405060708;
    lmem64[8] = 0x1112131415161718;
    goto fwd;
end
fwd: begin
    lmem64[3] = lmem64[0];
    goto back;
end
back: begin
    lmem64[1] = lmem64[6];
    lmem64[54] = lmem64[5];
    goto rd;
end
rd: begin
    r5 = lmem64[3];
    r6 = lmem64[55];
    exit(forward);
end
`},
	// r = r' op imm: the r' * imm then - imm cascade through a scratch
	// register (negative and wrapping results), each ALU function, and a
	// later move reading a register an earlier one wrote.
	{"reg_op_imm_cascade", `
s: begin
    r15 = 1;
    r17 = 0xFFFFFFFFFFFFFFFF;
    goto tail;
end
tail: begin
    r16 = r15 * 64 - 138;
    goto ops;
end
ops: begin
    r18 = r17 + 3;
    r19 = r16 >> 4;
    goto ops2;
end
ops2: begin
    r2 = r16 ^ 0xF0F0;
    r1 = r2 & 0xFF00;
    goto ops3;
end
ops3: begin
    r3 = r1 | 7;
    r4 = r3 << 62;
    goto fin;
end
fin: begin
    r20 = r4 - 400;
    r15 = r15 * 3;
    exit(forward);
end
`},
	// r = imm and r = lmem64[k]: full-width immediates, loads at odd byte
	// offsets, and a load of bytes a move of the same instruction wrote.
	{"imm_and_lmem64_load", `
s: begin
    r7 = 0xFEDCBA9876543210;
    lmem64[40] = 0x8899AABBCCDDEEFF;
    goto ld;
end
ld: begin
    lmem16[47] = 0xA1B2;
    r8 = lmem64[41];
    goto ld2;
end
ld2: begin
    r9 = lmem64[1272];
    r10 = 0;
    exit(consume);
end
`},
}

func TestCompiledMatchesInterpreterCorpus(t *testing.T) {
	cases := []struct {
		name string
		src  string
		init func(th *Thread, env *ChipEnv)
	}{
		{"filter_forward", filterSource, func(th *Thread, env *ChipEnv) {
			th.LoadHead(ipv4Head())
			th.Regs[1] = 200
		}},
		{"filter_drop_arp", filterSource, func(th *Thread, env *ChipEnv) {
			head := ipv4Head()
			head[12], head[13] = 0x08, 0x06
			th.LoadHead(head)
			th.Regs[1] = 64
		}},
		{"filter_drop_options", filterSource, func(th *Thread, env *ChipEnv) {
			head := ipv4Head()
			head[14] = 0x46 // ihl=6
			th.LoadHead(head)
			th.Regs[1] = 80
		}},
		{"call_return", `
main: begin
    call sub;
end
after: begin
    r0 = r0 + 100;
    exit(forward);
end
sub: begin
    r0 = r0 + 1;
    return;
end
`, nil},
		{"hash_ops", `
s: begin
    hash_insert(7, 42);
    goto look;
end
look: begin
    hash_lookup(7);
    if (hit) { goto found; }
    exit(drop);
end
found: begin
    r0 = r31;
    hash_delete(7);
    goto miss;
end
miss: begin
    hash_lookup(7);
    if (!hit) { exit(forward); }
    exit(drop);
end
`, nil},
		{"mem_rw_async_counter", `
s: begin
    lmem64[0] = 0x1122334455667788;
    mem_write(0x200, 8, 0);
    goto rd;
end
rd: begin
    mem_read(0x200, 8, 16);
    goto cnt;
end
cnt: begin
    async counter_inc(0x40, 100);
    goto use;
end
use: begin
    r0 = lmem64[16];
    exit(forward);
end
`, nil},
		{"tail_rw", `
s: begin
    tail_read(4, 8, 32);
    goto mod;
end
mod: begin
    lmem32[32] = lmem32[32] + 1;
    tail_write(4, 8, 32);
    exit(forward);
end
`, func(th *Thread, env *ChipEnv) {
			env.Tail = []byte("tail data for the rw corpus case")
		}},
		{"pointer_loop", `
s: begin
    r11 = 0;
    r13 = 8;
    goto loop;
end
loop: begin
    r0 = r0 + lmem32[r11];
    r11 = r11 + 4;
    goto ctl;
end
ctl: begin
    r13 = r13 - 1;
    if (r13 != 1) { goto loop; }
    exit(consume);
end
`, func(th *Thread, env *ChipEnv) {
			for i := 0; i < 64; i++ {
				th.LMem[i] = byte(i * 3)
			}
		}},
		{"eight_way_branch", `
sel: begin
    if (r1 == 0) { goto w0; }
    if (r1 == 1) { goto w1; }
    if (r1 == 2) { goto w0; }
    goto w1;
end
w0: begin
    r0 = 100;
    exit(forward);
end
w1: begin
    r0 = 200;
    exit(drop);
end
`, func(th *Thread, env *ChipEnv) {
			th.Regs[1] = 1
		}},
		{"ptr_fault", `
s: begin
    r11 = 2000;
    goto bad;
end
bad: begin
    r0 = lmem32[r11];
    exit(forward);
end
`, nil},
	}
	for _, tc := range cases {
		crossCheck(t, tc.name, tc.src, tc.init)
	}
	for _, tc := range fusedMoveSources {
		crossCheck(t, tc.name, tc.src, func(th *Thread, env *ChipEnv) {
			for i := range th.LMem {
				th.LMem[i] = byte(i*7 + 1)
			}
		})
	}
}

// Register bit-fields and sub-byte local-memory windows keep the generic
// move path, as destinations and as sources: only full-width registers and
// byte-aligned lmem64 windows fuse.
func TestRegisterFieldMovesStayGeneric(t *testing.T) {
	p := MustProgram("fields", []Instruction{
		{Label: "s", Moves: []MoveOp{
			{Dst: RField(5, 8, 8), A: Imm64(0x1ff), Fn: Pass},      // imm into a field: crops to 0xff
			{Dst: RField(6, 4, 12), A: R(5), B: Imm64(3), Fn: Add}, // r' op imm into a field
		}, Br: Branch{Default: Action{Kind: ActFallthrough}}},
		{Label: "t", Moves: []MoveOp{
			{Dst: RField(7, 0, 16), A: L(8*3, 64), Fn: Pass},       // lmem64 into a field
			{Dst: R(8), A: RField(6, 4, 12), B: Imm64(1), Fn: Sub}, // a field as the source
		}, Br: Branch{Default: Action{Kind: ActFallthrough}}},
		{Label: "u", Moves: []MoveOp{
			{Dst: R(9), A: L(8*3+4, 64), Fn: Pass},        // a window at a bit offset
			{Dst: L(8*40+4, 64), A: L(8*3, 64), Fn: Pass}, // into one
		}, Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictForward}}},
	})
	c := MustCompile(p)
	for pc := range c.ops {
		for i, m := range c.ops[pc].moves {
			if m.kind != mvGeneric {
				t.Fatalf("%s move %d: kind %d, want generic", c.ops[pc].label, i, m.kind)
			}
		}
	}
	for _, traced := range []bool{true, false} {
		diffEngines(t, "fields", p, c, "s", DefaultBudget, traced, func(th *Thread, env *ChipEnv) {
			th.Regs[5], th.Regs[6], th.Regs[7] = ^uint64(0), 0x123456789, ^uint64(0)
			for i := range th.LMem {
				th.LMem[i] = byte(i*13 + 5)
			}
		})
	}
}

func TestCompiledMatchesInterpreterExpressions(t *testing.T) {
	// The random-expression shape of TestAssemblerExpressionProperty, run on
	// both engines.
	ops := []string{"+", "-", "&", "|", "^", "*"}
	rng := func(seed *uint64) uint64 {
		*seed = *seed*6364136223846793005 + 1442695040888963407
		return *seed >> 33
	}
	for trial := uint64(0); trial < 60; trial++ {
		seed := trial + 1
		c1, c2 := rng(&seed)%1000, rng(&seed)%1000
		o := [3]int{int(rng(&seed)) % len(ops), int(rng(&seed)) % len(ops), int(rng(&seed)) % len(ops)}
		r1, r2 := rng(&seed), rng(&seed)
		src := fmt.Sprintf(`
s: begin
    r3 = (r1 %s %d) %s r2;
    goto s2;
end
s2: begin
    r0 = r3 %s %d;
    exit(consume);
end
`, ops[o[0]], c1, ops[o[1]], ops[o[2]], c2)
		crossCheck(t, fmt.Sprintf("expr_%d", trial), src, func(th *Thread, env *ChipEnv) {
			th.Regs[1], th.Regs[2] = r1, r2
		})
	}
}

func TestCompiledBudgetMatchesInterpreter(t *testing.T) {
	p := MustAssemble(`
loop: begin
    r0 = r0 + 1;
    goto loop;
end
`)
	c := MustCompile(p)
	thI, thC := NewThread(nil, 0), NewThread(nil, 0)
	_, errI := RunLimited(p, thI, "loop", 100)
	_, errC := RunCompiledLimited(c, thC, "loop", 100)
	if !errors.Is(errI, ErrBudget) || !errors.Is(errC, ErrBudget) {
		t.Fatalf("errs = %v / %v, want budget", errI, errC)
	}
	if thI.Stats != thC.Stats || thI.Regs != thC.Regs || thI.Now != thC.Now {
		t.Fatal("budget-terminated state diverges")
	}
}

func TestCompiledUnknownEntry(t *testing.T) {
	c := MustCompile(MustAssemble("s: begin exit(drop); end"))
	if _, err := RunCompiled(c, NewThread(nil, 0), "nope"); err == nil {
		t.Fatal("unknown entry accepted")
	}
}

// ---- the silent-misbranch regression (satellite 1) ----

// A branch target mutated after NewProgram used to jump silently to pc 0;
// now the interpreter reports ErrBadLabel and the static pipeline refuses to
// compile the program at all.
func TestMutatedBranchTargetIsNotSilentMisbranch(t *testing.T) {
	src := `
a: begin
    r0 = 1;
    goto b;
end
b: begin
    exit(forward);
end
`
	p := MustAssemble(src)
	p.Instrs[0].Br.Default = Action{Kind: ActGoto, Target: "nonexistent"}

	th := NewThread(nil, 0)
	_, err := Run(p, th, "a")
	if !errors.Is(err, ErrBadLabel) {
		t.Fatalf("interpreter err = %v, want ErrBadLabel", err)
	}
	if th.Stats.Instructions != 1 {
		t.Fatalf("instructions = %d, want 1 (no silent loop through pc 0)", th.Stats.Instructions)
	}
	if err := Verify(p); err == nil {
		t.Fatal("Verify accepted a dangling branch target")
	}
	if _, err := Compile(p); err == nil {
		t.Fatal("Compile accepted a dangling branch target")
	}

	// Same for a mutated call target.
	p2 := MustAssemble(src)
	p2.Instrs[0].Br.Default = Action{Kind: ActCall, Target: "nonexistent"}
	if _, err := Run(p2, NewThread(nil, 0), "a"); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("interpreter call err = %v, want ErrBadLabel", err)
	}
}

// ---- verifier ----

func TestVerifyAcceptsCorpusPrograms(t *testing.T) {
	for _, src := range []string{filterSource,
		"s: begin exit(drop); end",
		"loop: begin goto loop; end"} {
		p := MustAssemble(src)
		if err := Verify(p); err != nil {
			t.Fatalf("Verify(%q) = %v", p.Name, err)
		}
	}
}

func TestVerifyRejectsFallthroughPastEnd(t *testing.T) {
	p := MustProgram("t", []Instruction{{
		Label: "only",
		Moves: []MoveOp{{Dst: R(0), A: Imm64(1), Fn: Pass}},
		Br:    Branch{Default: Action{Kind: ActFallthrough}},
	}})
	if err := Verify(p); err == nil || !strings.Contains(err.Error(), "falls through") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsCallAtLastInstruction(t *testing.T) {
	p := MustProgram("t", []Instruction{
		{Label: "a", Br: Branch{Default: Action{Kind: ActGoto, Target: "b"}}},
		{Label: "b", Br: Branch{Default: Action{Kind: ActCall, Target: "a"}}},
	})
	if err := Verify(p); err == nil || !strings.Contains(err.Error(), "last instruction") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsRecursion(t *testing.T) {
	p := MustAssemble(`
rec: begin
    call rec;
end
done: begin
    exit(drop);
end
`)
	if err := Verify(p); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("err = %v", err)
	}
	// The reference interpreter still executes it (and still hits the
	// run-time depth limit) — only the compiled pipeline insists on the
	// static proof.
	if _, err := Run(MustAssemble("rec: begin\n    call rec;\nend\ndone: begin\n    exit(drop);\nend\n"), NewThread(nil, 0), "rec"); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("interpreter err = %v, want ErrCallDepth", err)
	}
}

// chainProgram builds n nested subroutines: top calls f0, fi calls fi+1.
func chainProgram(n int) *Program {
	var instrs []Instruction
	instrs = append(instrs,
		Instruction{Label: "top", Br: Branch{Default: Action{Kind: ActCall, Target: "f0"}}},
		Instruction{Label: "done", Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictConsume}}},
	)
	for i := 0; i < n; i++ {
		if i < n-1 {
			instrs = append(instrs,
				Instruction{Label: fmt.Sprintf("f%d", i), Br: Branch{Default: Action{Kind: ActCall, Target: fmt.Sprintf("f%d", i+1)}}},
				Instruction{Label: fmt.Sprintf("f%dret", i), Br: Branch{Default: Action{Kind: ActReturn}}},
			)
		} else {
			instrs = append(instrs, Instruction{Label: fmt.Sprintf("f%d", i), Br: Branch{Default: Action{Kind: ActReturn}}})
		}
	}
	return MustProgram("chain", instrs)
}

func TestVerifyCallDepthBound(t *testing.T) {
	if err := Verify(chainProgram(MaxCallDepth)); err != nil {
		t.Fatalf("depth-%d chain rejected: %v", MaxCallDepth, err)
	}
	if err := Verify(chainProgram(MaxCallDepth + 1)); err == nil {
		t.Fatalf("depth-%d chain accepted", MaxCallDepth+1)
	}
	// And the accepted chain runs identically on both engines.
	p := chainProgram(MaxCallDepth)
	c := MustCompile(p)
	thI, thC := NewThread(nil, 0), NewThread(nil, 0)
	vI, errI := Run(p, thI, "top")
	vC, errC := RunCompiled(c, thC, "top")
	if errI != nil || errC != nil || vI != vC || thI.Stats != thC.Stats {
		t.Fatalf("chain run diverges: %v/%v %v/%v", vI, vC, errI, errC)
	}
}

// ---- lowering details ----

func TestCompileFusesLoopShapes(t *testing.T) {
	// The Fig. 10 aggregation loop shape: the RMW add and the loop-control
	// ops must all lower into superinstruction forms, and the loop as a
	// whole into a kernel on its head. The set-up ahead of it carries every
	// other fused move shape of the chunk and result loops.
	p := MustAssemble(`
init: begin
    r12 = 448;
    r11 = 54;
    goto init2;
end
init2: begin
    r13 = 16;
    r14 = lmem64[8];
    goto init3;
end
init3: begin
    r16 = r14 * 64 - 138;
    goto init4;
end
init4: begin
    lmem64[600] = lmem64[54];
    goto add_loop;
end
add_loop: begin
    lmem32[r12] = lmem32[r12] + lmem32[r11];
    r11 = r11 + 4;
    goto add_ctl;
end
add_ctl: begin
    r13 = r13 - 1;
    r12 = r12 + 4;
    if (r13 != 1) { goto add_loop; }
    exit(consume);
end
`)
	c := MustCompile(p)
	if c.Fused() != 13 {
		t.Fatalf("fused = %d, want 13 (3 imm + reg-lmem64 + 2 cascaded reg-op-imm + copy64 + rmw32 + 3 reg-op-imm steps + reg-imm cond + loop kernel)", c.Fused())
	}
	for _, tc := range []struct {
		label string
		kinds []mvKind
	}{
		{"init", []mvKind{mvImm, mvImm}},
		{"init2", []mvKind{mvImm, mvRegLMem64}},
		{"init3", []mvKind{mvRegOpImm, mvRegOpImm}}, // r30 = r14 * 64; r16 = r30 - 138
		{"init4", []mvKind{mvCopy64}},
	} {
		pc, _ := c.Lookup(tc.label)
		var got []mvKind
		for _, m := range c.ops[pc].moves {
			got = append(got, m.kind)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.kinds) {
			t.Fatalf("%s: move kinds %v, want %v", tc.label, got, tc.kinds)
		}
	}
	add, _ := c.Lookup("add_loop")
	ctl, _ := c.Lookup("add_ctl")
	if c.ops[add].tag != tLoopHead {
		t.Fatalf("add_loop tag = %d, want tLoopHead", c.ops[add].tag)
	}
	if c.ops[add].moves[0].kind != mvPtrRMW32 {
		t.Fatalf("add_loop move 0 kind = %d, want mvPtrRMW32", c.ops[add].moves[0].kind)
	}
	k := c.ops[add].loop
	if k == nil || k.head != add || k.ctl != ctl || len(k.lanes) != 1 || k.passLen != 2 ||
		k.dreg != 12 || k.sreg != 11 || k.dmax != LMemBytes-4 || k.smax != LMemBytes-4 {
		t.Fatalf("add_loop kernel = %+v", k)
	}
	wantSteps := []regStep{{reg: 11, delta: 4}}
	wantCtl := []regStep{{reg: 13, delta: ^uint64(0)}, {reg: 12, delta: 4}}
	if fmt.Sprint(k.steps) != fmt.Sprint(wantSteps) || fmt.Sprint(k.ctlSteps) != fmt.Sprint(wantCtl) {
		t.Fatalf("kernel steps = %v / %v, want %v / %v", k.steps, k.ctlSteps, wantSteps, wantCtl)
	}
	if c.ops[ctl].tag != tGeneric { // exit default keeps it generic
		t.Fatalf("add_ctl tag = %d", c.ops[ctl].tag)
	}
	if c.ops[ctl].conds[0].kind != cdRegImm {
		t.Fatal("loop-control compare not fused")
	}

	dump := c.DumpCompiled()
	for _, want := range []string{"fused rmw32", "fused reg-op-imm", "fused reg-imm", "fused imm",
		"fused reg-lmem64", "fused copy64", "goto",
		"[loop head]", "loop kernel: head 4 (add_loop) .. end 5 (add_ctl), 1 lanes, 2 instructions per pass"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("DumpCompiled missing %q:\n%s", want, dump)
		}
	}
}

// ---- counted-loop kernels against the reference interpreter ----

// loopProgram renders a counted RMW loop of the shape Compile lowers: u body
// instructions (lane j at byte offset 4j of both pointers, the last one also
// stepping the source pointer) and one control instruction. Registers r11
// (source), r12 (destination) and r13 (lanes left) come from the caller.
// inverted flips the branch sense (the case leaves the loop, the default is
// the back edge); exitInCtl makes the leaving action an exit instead of a
// goto, so the kernel must hand the last control instruction back.
func loopProgram(u int, inverted, exitInCtl bool) string {
	var b strings.Builder
	for j := 0; j < u; j++ {
		label, next := fmt.Sprintf("l%d", j), fmt.Sprintf("l%d", j+1)
		if j == u-1 {
			next = "ctl"
		}
		fmt.Fprintf(&b, "%s: begin\n    lmem32[r12 + %d] = lmem32[r12 + %d] + lmem32[r11 + %d];\n", label, 4*j, 4*j, 4*j)
		if j == u-1 {
			fmt.Fprintf(&b, "    r11 = r11 + %d;\n", 4*u)
		}
		fmt.Fprintf(&b, "    goto %s;\nend\n", next)
	}
	leave := "goto done;"
	if exitInCtl {
		leave = "exit(consume);"
	}
	fmt.Fprintf(&b, "ctl: begin\n    r13 = r13 - %d;\n    r12 = r12 + %d;\n", u, 4*u)
	if inverted {
		fmt.Fprintf(&b, "    if (r13 == %d) { %s }\n    goto l0;\nend\n", u, leave)
	} else {
		fmt.Fprintf(&b, "    if (r13 != %d) { goto l0; }\n    %s\nend\n", u, leave)
	}
	b.WriteString("done: begin\n    r0 = r0 + 1;\n    exit(forward);\nend\n")
	return b.String()
}

// loopState seeds local memory with a non-trivial pattern (adds carry across
// bytes) and points the loop at src/dst with lanes lanes to go.
func loopState(src, dst, lanes uint64) func(th *Thread, env *ChipEnv) {
	return func(th *Thread, env *ChipEnv) {
		for i := range th.LMem {
			th.LMem[i] = byte(i*37 + 11)
		}
		th.Regs[11], th.Regs[12], th.Regs[13] = src, dst, lanes
	}
}

func TestLoopKernelMatchesInterpreter(t *testing.T) {
	const lanes = 16
	for _, u := range []int{1, 2, 4, 8, 16} {
		for _, inverted := range []bool{false, true} {
			for _, exitInCtl := range []bool{false, true} {
				name := fmt.Sprintf("u%d inverted=%v exit=%v", u, inverted, exitInCtl)
				p := MustAssemble(loopProgram(u, inverted, exitInCtl))
				c := MustCompile(p)
				k := c.ops[0].loop
				if k == nil || len(k.lanes) != u || k.passLen != uint64(u+1) || k.ctl != u {
					t.Fatalf("%s: loop not lowered: %+v", name, k)
				}
				for pc := 1; pc < c.Len(); pc++ {
					if c.ops[pc].loop != nil {
						t.Fatalf("%s: instruction %d heads a second kernel", name, pc)
					}
				}

				// (c) the whole loop, traced and untraced.
				var total uint64
				for _, traced := range []bool{true, false} {
					th, err := diffEngines(t, name, p, c, "l0", DefaultBudget, traced, loopState(64, 640, lanes))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					total = th.Stats.Instructions
				}
				if want := uint64(lanes/u*(u+1) + 1); total != want && !exitInCtl {
					t.Fatalf("%s: %d instructions, want %d", name, total, want)
				}

				// (a) a budget expiring on every instruction index of every pass.
				for budget := uint64(0); budget <= total+1; budget++ {
					diffEngines(t, name, p, c, "l0", budget, false, loopState(64, 640, lanes))
				}

				// (b) lane j of pass p faults, through either pointer: the
				// pointer starts so that exactly that lane's window ends one
				// word past local memory.
				for lane := uint64(0); lane < lanes; lane++ {
					edge := uint64(LMemBytes) - 4*lane
					for _, st := range []func(*Thread, *ChipEnv){loopState(64, edge, lanes), loopState(edge, 64, lanes)} {
						th, err := diffEngines(t, name, p, c, "l0", DefaultBudget, false, st)
						if !errors.Is(err, ErrFault) {
							t.Fatalf("%s: lane %d: err = %v, want a fault", name, lane, err)
						}
						if want := lane/uint64(u)*uint64(u+1) + lane%uint64(u) + 1; th.Stats.Instructions != want {
							t.Fatalf("%s: lane %d faulted after %d instructions, want %d", name, lane, th.Stats.Instructions, want)
						}
					}
				}

				// A jump into the middle of the body steps to the control
				// instruction and only then reaches the kernel.
				if u > 1 {
					diffEngines(t, name+" mid-entry", p, c, "l1", DefaultBudget, false, loopState(64, 640, lanes))
				}
				// Pointers that wrap the address space never reach the kernel.
				diffEngines(t, name+" wrap", p, c, "l0", DefaultBudget, false, loopState(64, ^uint64(0)-3, lanes))
				diffEngines(t, name+" wrap", p, c, "l0", DefaultBudget, false, loopState(^uint64(0)-7, 64, lanes))
				// Overlapping source and destination windows.
				diffEngines(t, name+" overlap", p, c, "l0", DefaultBudget, false, loopState(642, 640, lanes))
				// The shapes around the one-call lane add: identical windows,
				// the source a lane behind and a lane ahead of the
				// destination, and both windows ending at the end of local
				// memory.
				end := uint64(LMemBytes - 4*lanes)
				for _, w := range []struct {
					name     string
					src, dst uint64
				}{{"src == dst", 640, 640}, {"src a lane behind", 636, 640}, {"src a lane ahead", 644, 640}, {"both at the end", end, end}} {
					diffEngines(t, name+" "+w.name, p, c, "l0", DefaultBudget, false, loopState(w.src, w.dst, lanes))
				}
			}
		}
	}
}

// The shapes around the run-ahead: loops whose control instruction is a
// plain count in every direction the kernel recognises, and lowered loops it
// must not run ahead on. Each runs whole, traced and untraced, and under
// every budget up to its length (capped).
func TestLoopKernelCounts(t *testing.T) {
	const rmw = "    lmem32[r12] = lmem32[r12] + lmem32[r11];\n"
	loop := func(bodySteps, ctl string) string {
		return "l0: begin\n" + rmw + bodySteps + "    goto ctl;\nend\nctl: begin\n" + ctl + "end\ndone: begin\n    r0 = r0 + 1;\n    exit(forward);\nend\n"
	}
	cases := []struct {
		name    string
		src     string
		state   func(th *Thread, env *ChipEnv)
		counted bool
	}{
		{"count up", loop("    r11 = r11 + 4;\n",
			"    r13 = r13 + 1;\n    r12 = r12 + 4;\n    if (r13 != 15) { goto l0; }\n    goto done;\n"),
			loopState(64, 640, 0), true},
		{"pointers walking down", loop("    r11 = r11 - 4;\n",
			"    r13 = r13 - 1;\n    r12 = r12 - 4;\n    if (r13 != 1) { goto l0; }\n    goto done;\n"),
			loopState(300, 900, 16), true},
		{"pointer walking down past zero", loop("    r11 = r11 - 4;\n",
			"    r13 = r13 - 1;\n    r12 = r12 - 4;\n    if (r13 != 1) { goto l0; }\n    goto done;\n"),
			loopState(300, 20, 16), true},
		{"destination pointer is the counter", loop("    r11 = r11 + 4;\n",
			"    r12 = r12 + 4;\n    if (r12 != 700) { goto l0; }\n    goto done;\n"),
			loopState(64, 640, 0), true},
		{"counter stepped in the body", loop("    r13 = r13 - 1;\n",
			"    r12 = r12 + 4;\n    r11 = r11 + 4;\n    if (r13 == 0) { goto done; }\n    goto l0;\n"),
			loopState(64, 640, 16), true},
		{"counter stepped in body and control", loop("    r13 = r13 - 1;\n",
			"    r13 = r13 - 1;\n    r12 = r12 + 4;\n    if (r13 != 1) { goto l0; }\n    goto done;\n"),
			loopState(64, 640, 32), true},
		{"stride that steps over the bound", loop("    r11 = r11 + 4;\n",
			"    r13 = r13 - 2;\n    r12 = r12 + 4;\n    if (r13 != 2) { goto l0; }\n    goto done;\n"),
			loopState(64, 640, 15), true},
		{"counter already past the bound", loop("    r11 = r11 + 4;\n",
			"    r13 = r13 - 1;\n    r12 = r12 + 4;\n    if (r13 != 1) { goto l0; }\n    goto done;\n"),
			loopState(64, 640, 0), true},
		{"counter that never moves", loop("    r11 = r11 + 4;\n",
			"    r12 = r12 + 4;\n    if (r13 != 1) { goto l0; }\n    goto done;\n"),
			loopState(64, 640, 16), true},
		{"ordered compare", loop("    r11 = r11 + 4;\n",
			"    r13 = r13 - 1;\n    r12 = r12 + 4;\n    if (r13 > 1) { goto l0; }\n    goto done;\n"),
			loopState(64, 640, 16), false},
		{"continues while equal", loop("    r11 = r11 + 4;\n",
			"    r13 = r13 - 1;\n    r12 = r12 + 4;\n    if (r13 == 16) { goto l0; }\n    goto done;\n"),
			loopState(64, 640, 16), false},
		{"both actions are the back edge", loop("    r11 = r11 + 4;\n",
			"    r13 = r13 - 1;\n    r12 = r12 + 4;\n    if (r13 != 1) { goto l0; }\n    goto l0;\n"),
			loopState(64, 640, 16), false},
		{"two compares", loop("    r11 = r11 + 4;\n",
			"    r13 = r13 - 1;\n    r12 = r12 + 4;\n    if (r13 != 1 && r12 != 2000) { goto l0; }\n    goto done;\n"),
			loopState(64, 640, 16), false},
		// Lanes that are no one contiguous add keep the lane-at-a-time loop.
		{"add and sub lanes", "l0: begin\n" + rmw + "    goto l1;\nend\n" +
			"l1: begin\n    lmem32[r12 + 4] = lmem32[r12 + 4] - lmem32[r11 + 4];\n    r11 = r11 + 8;\n    goto ctl;\nend\n" +
			"ctl: begin\n    r13 = r13 - 2;\n    r12 = r12 + 8;\n    if (r13 != 0) { goto l0; }\n    goto done;\nend\n" +
			"done: begin\n    r0 = r0 + 1;\n    exit(forward);\nend\n",
			loopState(64, 640, 16), true},
		{"stride wider than the pass", loop("    r11 = r11 + 8;\n",
			"    r13 = r13 - 1;\n    r12 = r12 + 8;\n    if (r13 != 1) { goto l0; }\n    goto done;\n"),
			loopState(64, 640, 16), true},
	}
	for _, tc := range cases {
		p := MustAssemble(tc.src)
		c := MustCompile(p)
		k := c.ops[0].loop
		if k == nil {
			t.Fatalf("%s: loop not lowered", tc.name)
		}
		if (k.count != nil) != tc.counted {
			t.Fatalf("%s: count = %+v, want counted=%v", tc.name, k.count, tc.counted)
		}
		const limit = 3000 // the loops that never reach their bound end in a pointer fault first
		var total uint64
		for _, traced := range []bool{true, false} {
			th, _ := diffEngines(t, tc.name, p, c, "l0", limit, traced, tc.state)
			total = th.Stats.Instructions
		}
		if total >= limit {
			t.Fatalf("%s: ran into the %d-instruction limit", tc.name, limit)
		}
		for budget := uint64(0); budget <= min(total+1, 100); budget++ {
			diffEngines(t, tc.name, p, c, "l0", budget, false, tc.state)
		}
	}
}

func TestSpan(t *testing.T) {
	neg := func(v uint64) uint64 { return -v }
	for _, tc := range []struct{ ptr, max, step, want uint64 }{
		{0, 1276, 4, 320},  // 0, 4, ..., 1276
		{1276, 1276, 4, 1}, // only the first
		{1277, 1276, 4, 0}, // already outside
		{1270, 1276, 4, 2}, // 1270, 1274
		{10, 1276, 0, math.MaxUint64},
		{10, 1276, neg(4), 3},        // 10, 6, 2, then it would wrap
		{8, 1276, neg(4), 3},         // 8, 4, 0
		{0, 1276, neg(4), 1},         // 0
		{100, 1276, 1 << 62, 1},      // one huge stride leaves local memory
		{100, 1276, neg(1 << 62), 1}, // or wraps
		{5, 1276, 1 << 63, 1},        // -2^63 as a step
	} {
		if got := span(tc.ptr, tc.max, tc.step); got != tc.want {
			t.Errorf("span(%d, %d, %#x) = %d, want %d", tc.ptr, tc.max, tc.step, got, tc.want)
		}
	}
}

// Loops outside the lowering rule keep stepping — and keep matching.
func TestLoopShapesNotLowered(t *testing.T) {
	cases := map[string]string{
		"lanes through different pointers": `
l0: begin
    lmem32[r12] = lmem32[r12] + lmem32[r11];
    goto l1;
end
l1: begin
    lmem32[r14 + 4] = lmem32[r14 + 4] + lmem32[r11 + 4];
    goto ctl;
end
ctl: begin
    r13 = r13 - 2;
    if (r13 != 2) { goto l0; }
    exit(forward);
end
`,
		"step before the read-modify-write": `
l0: begin
    r11 = r11 + 4;
    lmem32[r12] = lmem32[r12] + lmem32[r11];
    goto ctl;
end
ctl: begin
    r13 = r13 - 1;
    r12 = r12 + 4;
    if (r13 != 1) { goto l0; }
    exit(forward);
end
`,
		"step that is not an add or subtract": `
l0: begin
    lmem32[r12] = lmem32[r12] + lmem32[r11];
    goto ctl;
end
ctl: begin
    r13 = r13 >> 1;
    if (r13 != 1) { goto l0; }
    exit(forward);
end
`,
		"control instruction with an XTXN": `
l0: begin
    lmem32[r12] = lmem32[r12] + lmem32[r11];
    goto ctl;
end
ctl: begin
    r13 = r13 - 1;
    async counter_inc(0x40, 1);
    if (r13 != 1) { goto l0; }
    exit(forward);
end
`,
		"compare against a register": `
l0: begin
    lmem32[r12] = lmem32[r12] + lmem32[r11];
    goto ctl;
end
ctl: begin
    r13 = r13 - 1;
    if (r13 != r9) { goto l0; }
    exit(forward);
end
`,
		"lane offset beyond local memory": `
l0: begin
    lmem32[r12 + 1400] = lmem32[r12 + 1400] + lmem32[r11];
    goto ctl;
end
ctl: begin
    r13 = r13 - 1;
    if (r13 != 1) { goto l0; }
    exit(forward);
end
`,
		"control move from another register": `
l0: begin
    lmem32[r12] = lmem32[r12] + lmem32[r11];
    goto ctl;
end
ctl: begin
    r13 = r9 - 1;
    if (r13 != 1) { goto l0; }
    exit(forward);
end
`,
		"control step from another register": `
l0: begin
    lmem32[r12] = lmem32[r12] + lmem32[r11];
    r11 = r11 + 4;
    goto ctl;
end
ctl: begin
    r13 = r13 - 1;
    r1 = r2 + 4;
    if (r13 != 1) { goto l0; }
    exit(forward);
end
`,
		"body move that is not a step": `
l0: begin
    lmem32[r12] = lmem32[r12] + lmem32[r11];
    r11 = r9 + 4;
    goto ctl;
end
ctl: begin
    r13 = r13 - 1;
    if (r13 != 1) { goto l0; }
    exit(forward);
end
`,
		"body with no control instruction": `
l0: begin
    lmem32[r12] = lmem32[r12] + lmem32[r11];
    goto l0;
end
`,
	}
	for name, src := range cases {
		c := MustCompile(MustAssemble(src))
		for pc := range c.ops {
			if c.ops[pc].loop != nil || c.ops[pc].tag == tLoopHead {
				t.Fatalf("%s: instruction %d was lowered", name, pc)
			}
		}
		p := c.Src
		diffEngines(t, name, p, c, "l0", 200, false, func(th *Thread, env *ChipEnv) {
			loopState(64, 640, 16)(th, env)
			th.Regs[14], th.Regs[9] = 700, 1
		})
	}
}

func TestCompiledFallthroughResolved(t *testing.T) {
	p := MustProgram("t", []Instruction{
		{Label: "a", Moves: []MoveOp{{Dst: R(0), A: Imm64(7), Fn: Pass}},
			Br: Branch{Default: Action{Kind: ActFallthrough}}},
		{Label: "b", Br: Branch{Default: Action{Kind: ActExit, Verdict: VerdictForward}}},
	})
	c := MustCompile(p)
	a, _ := c.Lookup("a")
	if c.ops[a].def.kind != ActGoto || c.ops[a].def.target != a+1 {
		t.Fatalf("fallthrough not lowered to goto pc+1: %+v", c.ops[a].def)
	}
	th := NewThread(nil, 0)
	if v, err := RunCompiled(c, th, "a"); err != nil || v != VerdictForward || th.Regs[0] != 7 {
		t.Fatalf("run: %v %v r0=%d", v, err, th.Regs[0])
	}
}

func TestCostModel(t *testing.T) {
	c := MustCompile(MustAssemble(`
s: begin
    mem_read(0x100, 8, 0);
    goto w;
end
w: begin
    async mem_write(0x100, 8, 0);
    if (r0 == 0) { goto s; }
    exit(drop);
end
`))
	m := c.Cost()
	if m.StaticInstructions != 2 || m.XTXNSites != 2 || m.SyncXTXNSites != 1 || m.BranchSites != 1 {
		t.Fatalf("cost = %+v", m)
	}
}

func TestPipelineStatsAdvance(t *testing.T) {
	before := ReadPipelineStats()
	c := MustCompile(MustAssemble("s: begin\n    r0 = r0 + 1;\n    exit(drop);\nend\n"))
	if _, err := RunCompiled(c, NewThread(nil, 0), "s"); err != nil {
		t.Fatal(err)
	}
	after := ReadPipelineStats()
	if after.ProgramsCompiled <= before.ProgramsCompiled {
		t.Fatal("programs-compiled tally did not advance")
	}
	if after.DispatchInstructions <= before.DispatchInstructions {
		t.Fatal("dispatch-instructions tally did not advance")
	}
}
