package microcode

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/trioml/triogo/internal/packet"
)

// filterSource is the §3.2 filtering application (testdata/filter.mc):
// forward IP packets without options, drop everything else, counting drops
// per cause in Packet/Byte Counters.
var filterSource = func() string {
	src, err := os.ReadFile("testdata/filter.mc")
	if err != nil {
		panic(err)
	}
	return string(src)
}()

// dropCntBase matches DROP_CNT_BASE in filterSource; it lands inside the
// default SRAM tier.
const dropCntBase = 0x1000

func assembleFilter(t *testing.T) *Program {
	t.Helper()
	p, err := Assemble(filterSource)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func runFilter(t *testing.T, env Env, frame []byte) Verdict {
	t.Helper()
	p := assembleFilter(t)
	th := NewThread(env, 0)
	th.LoadHead(frame)
	th.Regs[1] = uint64(len(frame)) // pkt_len, set by dispatch
	v, err := Run(p, th, "process_ether")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestFilterProgramAssembles(t *testing.T) {
	p := assembleFilter(t)
	if p.Name != "filter" {
		t.Fatalf("name = %q", p.Name)
	}
	if p.Len() != 5 {
		t.Fatalf("instructions = %d, want 5", p.Len())
	}
}

func TestFilterForwardsPlainIPv4(t *testing.T) {
	env := newChipEnv()
	frame := packet.BuildUDP(packet.UDPSpec{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1, DstPort: 2,
	}, []byte("payload"))
	if v := runFilter(t, env, frame); v != VerdictForward {
		t.Fatalf("verdict = %v, want forward", v)
	}
	pkts, _ := env.Mem.Counter(dropCntBase)
	pkts2, _ := env.Mem.Counter(dropCntBase + 16)
	if pkts != 0 || pkts2 != 0 {
		t.Fatal("drop counters incremented for forwarded packet")
	}
}

func TestFilterDropsNonIPAndCounts(t *testing.T) {
	env := newChipEnv()
	eth := packet.Ethernet{EtherType: packet.EtherTypeARP}
	frame := make([]byte, 64)
	eth.MarshalTo(frame)
	if v := runFilter(t, env, frame); v != VerdictDrop {
		t.Fatalf("verdict = %v, want drop", v)
	}
	pkts, bytes := env.Mem.Counter(dropCntBase) // non-IP counter
	if pkts != 1 || bytes != 64 {
		t.Fatalf("non-IP counter = (%d,%d), want (1,64)", pkts, bytes)
	}
	if pkts2, _ := env.Mem.Counter(dropCntBase + 16); pkts2 != 0 {
		t.Fatal("IP-options counter incremented for non-IP packet")
	}
}

func TestFilterDropsIPOptionsAndCounts(t *testing.T) {
	env := newChipEnv()
	frame := packet.BuildUDP(packet.UDPSpec{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1, DstPort: 2,
		IPOptions: []byte{0x94, 0x04, 0x00, 0x00},
	}, []byte("x"))
	if v := runFilter(t, env, frame); v != VerdictDrop {
		t.Fatalf("verdict = %v, want drop", v)
	}
	pkts, bytes := env.Mem.Counter(dropCntBase + 16) // IP-options counter
	if pkts != 1 || bytes != uint64(len(frame)) {
		t.Fatalf("IP-options counter = (%d,%d)", pkts, bytes)
	}
}

func TestFilterCountsAccumulate(t *testing.T) {
	env := newChipEnv()
	arp := make([]byte, 60)
	(&packet.Ethernet{EtherType: packet.EtherTypeARP}).MarshalTo(arp)
	for i := 0; i < 5; i++ {
		runFilter(t, env, arp)
	}
	pkts, bytes := env.Mem.Counter(dropCntBase)
	if pkts != 5 || bytes != 300 {
		t.Fatalf("counter = (%d,%d), want (5,300)", pkts, bytes)
	}
}

func TestAssemblerConstantFolding(t *testing.T) {
	p := MustAssemble(`
s: begin
    r0 = (2 + 3) * 4 - 1;
    exit(forward);
end
`)
	th := NewThread(nil, 0)
	v, err := Run(p, th, "s")
	if err != nil || v != VerdictForward {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if th.Regs[0] != 19 {
		t.Fatalf("r0 = %d", th.Regs[0])
	}
	// Folding means no Move-ALU chain was needed: one move.
	if len(p.Instrs[0].Moves) != 1 {
		t.Fatalf("moves = %d", len(p.Instrs[0].Moves))
	}
}

func TestAssemblerOperatorPrecedence(t *testing.T) {
	p := MustAssemble(`
s: begin
    r0 = 1 + 2 * 8 >> 1 | 32;   // ((1 + (2*8)) >> 1) | 32 = 8 | 32 = 40
    exit(forward);
end
`)
	th := NewThread(nil, 0)
	Run(p, th, "s")
	if th.Regs[0] != 40 {
		t.Fatalf("r0 = %d, want 40", th.Regs[0])
	}
}

func TestAssemblerRuntimeExpressionUsesScratch(t *testing.T) {
	p := MustAssemble(`
s: begin
    r2 = 0x100 + r1 * 2;
    exit(forward);
end
`)
	th := NewThread(nil, 0)
	th.Regs[1] = 5
	Run(p, th, "s")
	if th.Regs[2] != 0x10A {
		t.Fatalf("r2 = %#x", th.Regs[2])
	}
}

func TestAssemblerTooComplexExpressionFails(t *testing.T) {
	// Three independent runtime products exceed two scratch registers —
	// TC-style compile failure, not silent splitting.
	_, err := Assemble(`
s: begin
    r0 = r1 * r2 + r3 * r4 + r5 * r6;
    exit(forward);
end
`)
	if err == nil {
		t.Fatal("over-complex instruction assembled")
	}
}

func TestAssemblerLMemAccessors(t *testing.T) {
	p := MustAssemble(`
s: begin
    lmem32[4] = 0xDEADBEEF;
    r0 = lmem16[6];
    exit(forward);
end
`)
	th := NewThread(nil, 0)
	Run(p, th, "s")
	if th.Regs[0] != 0xBEEF {
		t.Fatalf("r0 = %#x", th.Regs[0])
	}
}

func TestAssemblerHashIntrinsicsAndHit(t *testing.T) {
	p := MustAssemble(`
ins: begin
    hash_insert(r0, r1);
    goto look;
end
look: begin
    hash_lookup(r0);
    if (hit) { goto found; }
    exit(drop);
end
found: begin
    r2 = rr;
    exit(forward);
end
`)
	env := newChipEnv()
	th := NewThread(env, 0)
	th.Regs[0], th.Regs[1] = 5, 999
	v, err := Run(p, th, "ins")
	if err != nil || v != VerdictForward {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if th.Regs[2] != 999 {
		t.Fatalf("rr = %d", th.Regs[2])
	}
}

func TestAssemblerNegatedHit(t *testing.T) {
	p := MustAssemble(`
look: begin
    hash_lookup(r0);
    if (!hit) { exit(consume); }
    exit(drop);
end
`)
	env := newChipEnv()
	v, err := Run(p, NewThread(env, 0), "look")
	if err != nil || v != VerdictConsume {
		t.Fatalf("v=%v err=%v", v, err)
	}
}

func TestAssemblerCallReturn(t *testing.T) {
	p := MustAssemble(`
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
`)
	th := NewThread(nil, 0)
	Run(p, th, "main")
	if th.Regs[0] != 101 {
		t.Fatalf("r0 = %d", th.Regs[0])
	}
}

func TestAssemblerAsyncIntrinsic(t *testing.T) {
	p := MustAssemble(`
s: begin
    async counter_inc(0x40, 100);
    exit(drop);
end
`)
	env := newChipEnv()
	th := NewThread(env, 0)
	Run(p, th, "s")
	if th.Stats.SyncStall != 0 {
		t.Fatal("async intrinsic stalled")
	}
	if pkts, _ := env.Mem.Counter(0x40); pkts != 1 {
		t.Fatal("async counter not incremented")
	}
}

func TestAssemblerMemReadWrite(t *testing.T) {
	p := MustAssemble(`
s: begin
    lmem64[0] = 0x1122334455667788;
    mem_write(0x200, 8, 0);
    goto rd;
end
rd: begin
    mem_read(0x200, 8, 16);
    goto use;
end
use: begin
    // The mem_read reply lands in LMEM only after the issuing instruction
    // completes, so consuming it takes a subsequent instruction.
    r0 = lmem64[16];
    exit(forward);
end
`)
	env := newChipEnv()
	th := NewThread(env, 0)
	Run(p, th, "s")
	if th.Regs[0] != 0x1122334455667788 {
		t.Fatalf("r0 = %#x", th.Regs[0])
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"undefined label", `s: begin goto nowhere; end`, "undefined label"},
		{"undefined ident", `s: begin r0 = zork; end`, "undefined identifier"},
		{"missing semicolon", `s: begin r0 = 1 end`, "expected"},
		{"bad struct field width", `struct x { f : 0; };`, "out of range"},
		{"unknown struct in layout", `layout a : nope @ 0;`, "unknown struct"},
		{"bad verdict", `s: begin exit(maybe); end`, "unknown verdict"},
		{"duplicate label", "a: begin exit(drop); end\na: begin exit(drop); end", "duplicate label"},
		{"unterminated comment", `/* s: begin exit(drop); end`, "unterminated"},
		{"unterminated instruction", `s: begin r0 = 1;`, "unexpected end of input"},
		{"bad register alias", `reg x = r99;`, "not a register"},
		{"counter arity", `s: begin counter_inc(1); end`, "takes 2 arguments"},
		{"empty program", `define X = 1;`, "no instructions"},
		{"keyword as identifier", `s: begin r0 = goto; end`, "keyword"},
		{"bad lmem index", `s: begin r0 = lmem8[r1 * r2]; end`, "lmem index"},
		{"too many conds", `s: begin if (r0 == 0 && r1 == 0 && r2 == 0 && r3 == 0) { goto s; } end`, "too many conditions"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil {
			t.Errorf("%s: assembled without error", c.name)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

func TestAssemblerLineNumbersInErrors(t *testing.T) {
	_, err := Assemble("\n\n\ns: begin\n    r0 = zork;\nend\n")
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("error lacks line number: %v", err)
	}
}

func TestPointerRegisterLMemAccess(t *testing.T) {
	// Walk a pointer register over local memory, summing 32-bit words —
	// the addressing mode the Fig. 10 tail-aggregation loop depends on.
	p := MustAssemble(`
reg ptr = r2;
reg acc = r3;
reg cnt = r4;
init: begin
    ptr = 100;     // staging area
    acc = 0;
    goto init2;
end
init2: begin
    cnt = 4;
    goto loop;
end
loop: begin
    acc = acc + lmem32[ptr];
    ptr = ptr + 4;
    goto loop_ctl;
end
loop_ctl: begin
    // Condition ALUs read pre-instruction state, so test against 1 while
    // decrementing in the same instruction.
    if (cnt != 1) { goto loop; }
    cnt = cnt - 1;
    exit(consume);
end
`)
	th := NewThread(nil, 0)
	for i := 0; i < 4; i++ {
		th.LMem[100+4*i+3] = byte(i + 1) // big-endian 32-bit values 1..4
	}
	v, err := Run(p, th, "init")
	if err != nil || v != VerdictConsume {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if th.Regs[3] != 10 {
		t.Fatalf("acc = %d, want 10", th.Regs[3])
	}
}

func TestPointerRegisterWrite(t *testing.T) {
	p := MustAssemble(`
s: begin
    lmem16[r1 + 2] = 0xBEEF;
    exit(consume);
end
`)
	th := NewThread(nil, 0)
	th.Regs[1] = 200
	if _, err := Run(p, th, "s"); err != nil {
		t.Fatal(err)
	}
	if th.LMem[202] != 0xBE || th.LMem[203] != 0xEF {
		t.Fatalf("lmem = % x", th.LMem[200:204])
	}
}

func TestPointerOutOfBoundsFaults(t *testing.T) {
	p := MustAssemble(`
s: begin
    r0 = lmem64[r1];
    exit(consume);
end
`)
	th := NewThread(nil, 0)
	th.Regs[1] = LMemBytes - 4 // 8-byte read overruns
	_, err := Run(p, th, "s")
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want thread fault", err)
	}
}

func TestPointerRegisterCountsAgainstBudget(t *testing.T) {
	// lmem[rX] consumes a register read AND an lmem read: three pointer
	// reads in one instruction exceed the two-lmem-read budget.
	_, err := Assemble(`
s: begin
    r0 = lmem8[r1] + lmem8[r2];
    r3 = lmem8[r4];
    exit(drop);
end
`)
	if err == nil {
		t.Fatal("three pointer reads in one instruction accepted")
	}
}

func TestCompoundComparisonRejected(t *testing.T) {
	_, err := Assemble(`
s: begin
    if (r1 + r2 == 3) { goto s; }
    exit(drop);
end
`)
	if err == nil || !strings.Contains(err.Error(), "previous instruction") {
		t.Fatalf("compound comparison accepted or wrong error: %v", err)
	}
}

// TestAssemblerExpressionProperty evaluates randomly generated arithmetic
// expressions both through the assembler+interpreter and directly in Go;
// the results must agree.
func TestAssemblerExpressionProperty(t *testing.T) {
	ops := []struct {
		text string
		eval func(a, b uint64) uint64
	}{
		{"+", func(a, b uint64) uint64 { return a + b }},
		{"-", func(a, b uint64) uint64 { return a - b }},
		{"&", func(a, b uint64) uint64 { return a & b }},
		{"|", func(a, b uint64) uint64 { return a | b }},
		{"^", func(a, b uint64) uint64 { return a ^ b }},
		{"*", func(a, b uint64) uint64 { return a * b }},
	}
	rng := func(seed *uint64) uint64 {
		*seed = *seed*6364136223846793005 + 1442695040888963407
		return *seed >> 33
	}
	for trial := uint64(0); trial < 200; trial++ {
		seed := trial + 1
		// Expression over r1, r2 and two constants with random operators;
		// parenthesized left-to-right so Go and assembler agree on shape.
		c1, c2 := rng(&seed)%1000, rng(&seed)%1000
		o := [3]int{int(rng(&seed)) % len(ops), int(rng(&seed)) % len(ops), int(rng(&seed)) % len(ops)}
		r1, r2 := rng(&seed), rng(&seed)
		// TC's two-write budget forces the three-op expression across two
		// instructions, exactly as a Microcode programmer would split it.
		src := fmt.Sprintf(`
s: begin
    r3 = (r1 %s %d) %s r2;
    goto s2;
end
s2: begin
    r0 = r3 %s %d;
    exit(consume);
end
`, ops[o[0]].text, c1, ops[o[1]].text, ops[o[2]].text, c2)
		p, err := Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		th := NewThread(nil, 0)
		th.Regs[1], th.Regs[2] = r1, r2
		if _, err := Run(p, th, "s"); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := ops[o[2]].eval(ops[o[1]].eval(ops[o[0]].eval(r1, c1), r2), c2)
		if th.Regs[0] != want {
			t.Fatalf("trial %d: got %d want %d for\n%s", trial, th.Regs[0], want, src)
		}
	}
}

func TestProgramDump(t *testing.T) {
	p := MustAssemble(`
s: begin
    r0 = r1 + 2;
    async counter_inc(0x40, r0);
    if (r0 == 7) { goto done; }
    goto s;
end
done: begin
    lmem32[r2 + 4] = 9;
    exit(forward);
end
`)
	out := p.Dump()
	for _, want := range []string{
		"program main  (2 instructions)",
		"s:", "done:",
		"move : r0 <- add(r1, 2)",
		"async counter_inc(0x40, r0)",
		"cond0: r0 == 7",
		"-> goto done",
		"default -> goto s",
		"lmem[r2+4:32] <- 9",
		"exit(forward)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestPointerOperandInCondition(t *testing.T) {
	p := MustAssemble(`
s: begin
    if (lmem8[r1] == 0xAB) { exit(forward); }
    exit(drop);
end
`)
	th := NewThread(nil, 0)
	th.Regs[1] = 500
	th.LMem[500] = 0xAB
	if v, err := Run(p, th, "s"); err != nil || v != VerdictForward {
		t.Fatalf("v=%v err=%v", v, err)
	}
	th2 := NewThread(nil, 0)
	th2.Regs[1] = 500
	if v, _ := Run(p, th2, "s"); v != VerdictDrop {
		t.Fatalf("v=%v", v)
	}
}

func TestAssemblerEightWayBranchViaSequentialIfs(t *testing.T) {
	// Three comparisons + hit would exceed the condition budget, but three
	// sequential ifs plus a default yield a 4-way branch in one
	// instruction — the §2.2 multi-way branching.
	p := MustAssemble(`
sel: begin
    if (r1 == 0) { exit(drop); }
    if (r1 == 1) { exit(consume); }
    if (r1 == 2) { goto fwd; }
    exit(drop);
end
fwd: begin
    exit(forward);
end
`)
	if ways := len(p.Instrs[0].Br.Cases) + 1; ways != 4 {
		t.Fatalf("branch ways = %d", ways)
	}
	for r1, want := range map[uint64]Verdict{0: VerdictDrop, 1: VerdictConsume, 2: VerdictForward, 3: VerdictDrop} {
		th := NewThread(nil, 0)
		th.Regs[1] = r1
		v, err := Run(p, th, "sel")
		if err != nil || v != want {
			t.Fatalf("r1=%d: v=%v err=%v", r1, v, err)
		}
	}
}

func TestSequentialIfsFirstMatchWins(t *testing.T) {
	// Overlapping conditions resolve in order, like hardware branch-case
	// priority.
	p := MustAssemble(`
s: begin
    if (r1 < 10) { exit(forward); }
    if (r1 < 100) { exit(consume); }
    exit(drop);
end
`)
	cases := map[uint64]Verdict{5: VerdictForward, 50: VerdictConsume, 500: VerdictDrop}
	for r1, want := range cases {
		th := NewThread(nil, 0)
		th.Regs[1] = r1
		if v, _ := Run(p, th, "s"); v != want {
			t.Fatalf("r1=%d: v=%v want %v", r1, v, want)
		}
	}
}
