// The v2 execution pipeline: Compile lowers a verified Program into a flat,
// pc-resolved internal representation — branch targets become instruction
// indices, operands become pre-decoded accessors with their shift masks and
// byte windows computed once, the common Move/Cond shapes fuse into
// superinstructions the dispatch loop runs without a call (`r = imm`,
// `r = r' op imm`, `r = lmem64[k]`, `lmem64[a] = lmem64[b]`, the pointer
// read-modify-write, `r cmp imm`), and counted loops built only from those
// shapes lower into kernels (loop.go) that retire a whole pass at a time,
// and each multi-way branch becomes a table holding its action for every
// value of the condition bits — which RunCompiled then dispatches with zero
// map lookups and zero per-instruction allocations. Every other move goes
// through the generic accessor switch (execMove). The tree-walking Run in
// exec.go stays as the reference interpreter; the two are cross-checked
// instruction for instruction in tests.
package microcode

import (
	"encoding/binary"
	"fmt"

	"github.com/trioml/triogo/internal/bitfield"
)

// accKind discriminates pre-decoded operand accessors. The byte-aligned
// local-memory kinds skip package bitfield's per-call alignment analysis and
// go straight to big-endian byte loads/stores.
type accKind uint8

const (
	accImm       accKind = iota
	accReg               // full 64-bit register
	accRegField          // register bit-field: shift + precomputed mask
	accLMemBytes         // static byte-aligned local-memory window
	accLMemBits          // static local memory, arbitrary bit offset/width
	accPtrBytes          // pointer register + static byte offset, byte-aligned width
	accPtrBits           // pointer register, sub-byte width
)

// acc is one pre-decoded operand accessor.
type acc struct {
	kind    accKind
	val     uint64 // accImm
	reg     int
	off     uint // accRegField shift; accLMemBits/accPtrBits bit offset
	width   uint
	mask    uint64 // accRegField: ^0 >> (64-width)
	byteOff int    // accLMemBytes absolute; accPtrBytes static byte offset
	nbytes  int
}

func compileAcc(o Operand) acc {
	switch o.Kind {
	case Imm:
		return acc{kind: accImm, val: o.Val}
	case Reg:
		if o.Width == 0 {
			return acc{kind: accReg, reg: o.Reg}
		}
		return acc{kind: accRegField, reg: o.Reg, off: o.Off, width: o.Width,
			mask: ^uint64(0) >> (64 - o.Width)}
	case LMem:
		if o.Off%8 == 0 && o.Width%8 == 0 {
			return acc{kind: accLMemBytes, byteOff: int(o.Off / 8), nbytes: int(o.Width / 8), width: o.Width}
		}
		return acc{kind: accLMemBits, off: o.Off, width: o.Width}
	case LMemPtr:
		// checkOperand guarantees the static offset is byte-aligned.
		if o.Width%8 == 0 {
			return acc{kind: accPtrBytes, reg: o.Reg, byteOff: int(o.Off / 8), nbytes: int(o.Width / 8), width: o.Width}
		}
		return acc{kind: accPtrBits, reg: o.Reg, byteOff: int(o.Off / 8), width: o.Width}
	}
	panic("microcode: bad operand kind")
}

// isLMem64 reports whether a is a static, byte-aligned 8-byte local-memory
// window: lmem64[k] at any byte k.
func (a *acc) isLMem64() bool { return a.kind == accLMemBytes && a.nbytes == 8 }

// ptrByteAddr resolves a pointer accessor's dynamic byte address with the
// same fault condition the interpreter's ptrBitOff enforces.
func (t *Thread) ptrByteAddr(a *acc, nbytes uint64) uint64 {
	addr := t.Regs[a.reg] + uint64(a.byteOff)
	if addr+nbytes > LMemBytes || addr+nbytes < addr {
		panic(threadFault{fmt.Sprintf("pointer access r%d -> [%d,%d) outside %d-byte local memory", a.reg, addr, addr+nbytes, LMemBytes)})
	}
	return addr
}

// load reads an operand. Immediates and full registers — most operands of
// the non-loop instructions, and every XTXN address in the shipped programs —
// resolve inline; the rest go through readAcc's accessor switch.
func (t *Thread) load(a *acc) uint64 {
	switch a.kind {
	case accImm:
		return a.val
	case accReg:
		return t.Regs[a.reg]
	}
	return t.readAcc(a)
}

// readAcc reads the accessor kinds load does not resolve inline.
func (t *Thread) readAcc(a *acc) uint64 {
	switch a.kind {
	case accRegField:
		return t.Regs[a.reg] >> a.off & a.mask
	case accLMemBytes:
		if a.nbytes == 8 {
			return binary.BigEndian.Uint64(t.LMem[a.byteOff:])
		}
		var v uint64
		for _, b := range t.LMem[a.byteOff : a.byteOff+a.nbytes] {
			v = v<<8 | uint64(b)
		}
		return v
	case accLMemBits:
		return bitfield.Get(t.LMem[:], a.off, a.width)
	case accPtrBytes:
		addr := t.ptrByteAddr(a, uint64(a.nbytes))
		var v uint64
		for _, b := range t.LMem[addr : addr+uint64(a.nbytes)] {
			v = v<<8 | uint64(b)
		}
		return v
	case accPtrBits:
		addr := t.ptrByteAddr(a, uint64((a.width+7)/8))
		return bitfield.Get(t.LMem[:], uint(addr)*8, a.width)
	}
	panic("microcode: bad accessor kind")
}

func (t *Thread) writeAcc(a *acc, v uint64) {
	switch a.kind {
	case accReg:
		t.Regs[a.reg] = v
	case accRegField:
		m := a.mask << a.off
		t.Regs[a.reg] = t.Regs[a.reg]&^m | v<<a.off&m
	case accLMemBytes:
		if a.nbytes == 8 {
			binary.BigEndian.PutUint64(t.LMem[a.byteOff:], v)
			return
		}
		for i := a.nbytes - 1; i >= 0; i-- {
			t.LMem[a.byteOff+i] = byte(v)
			v >>= 8
		}
	case accLMemBits:
		bitfield.Put(t.LMem[:], a.off, a.width, v)
	case accPtrBytes:
		addr := t.ptrByteAddr(a, uint64(a.nbytes))
		for i := a.nbytes - 1; i >= 0; i-- {
			t.LMem[addr+uint64(i)] = byte(v)
			v >>= 8
		}
	case accPtrBits:
		addr := t.ptrByteAddr(a, uint64((a.width+7)/8))
		bitfield.Put(t.LMem[:], uint(addr)*8, a.width, v)
	default:
		panic("microcode: bad move destination")
	}
}

// mvKind selects a Move superinstruction shape.
type mvKind uint8

const (
	// mvGeneric is the unfused form: readAcc/writeAcc through the accessor
	// switch.
	mvGeneric mvKind = iota
	// mvRegOpImm fuses `r = r' op imm` on full-width registers: the
	// ptr_s/ptr_b/lane steps of every Microcode loop (r' = r), and each half
	// of a cascade through a scratch register such as `toff = k * 64 - 138`.
	mvRegOpImm
	// mvImm fuses `r = imm` (pointer and counter initialisation).
	mvImm
	// mvRegLMem64 fuses `r = lmem64[k]`: a static, byte-aligned 8-byte load.
	mvRegLMem64
	// mvCopy64 fuses `lmem64[a] = lmem64[b]`: the result loop's copies.
	mvCopy64
	// mvPtrRMW32 fuses `lmem32[p + k] = lmem32[p + k] op lmem32[q + j]` — the
	// gradient read-modify-write of Fig. 10's aggregation loop — into one
	// bounds check per side and direct big-endian 32-bit loads/stores.
	mvPtrRMW32
)

type cmove struct {
	kind mvKind
	dst  acc
	a, b acc
	fn   ALUFn
	crop uint64 // result mask; 0 = none (full width)
}

// cdKind selects a Cond superinstruction shape.
type cdKind uint8

const (
	cdGeneric cdKind = iota
	// cdRegImm fuses `r cmp imm` — the loop-control compare.
	cdRegImm
)

type ccond struct {
	kind cdKind
	a, b acc
	cmp  CmpFn
	bit  uint8 // 1 << Idx
}

// ccase is a branch case with its action lowered: fallthroughs are resolved
// to explicit jumps and labels to instruction indices.
type ccase struct {
	mask, want uint8
	kind       ActionKind // ActGoto / ActCall / ActReturn / ActExit
	target     int
	verdict    Verdict
}

// Dispatch-loop shape tags. tGeneric carries the XTXN phase and the full
// action set; every other shape has no XTXN and only goto actions, so the
// dispatcher sequences it with one target pick.
const (
	tGeneric     uint8 = iota
	tMovesJump         // moves only, unconditional jump: no conds to evaluate
	tMovesBranch       // conds + moves + all-goto branch, no XTXN
	tLoopHead          // tMovesJump that is also the head of a lowered loop (cop.loop)
)

// cop is one compiled micro-instruction.
type cop struct {
	tag   uint8
	conds []ccond
	moves []cmove
	xtxn  *XTXN
	xaddr acc // xtxn.Addr pre-decoded
	xlen  acc // xtxn.Len pre-decoded; immediate 0 for kinds that ignore it
	cases []ccase
	def   ccase
	label string
	fused int                // superinstructions fused into this op (dump annotation)
	loop  *loopKernel        // tLoopHead only
	sel   *[condValues]ccase // with cases: the action picked under each value of the condition bits
}

// condValues is how many values the condition bits take: one bit per
// condition index below MaxCondOps, the hash-hit bit among them.
const condValues = 1 << MaxCondOps

// Compiled is a verified, lowered program ready for RunCompiled.
type Compiled struct {
	Name string
	Src  *Program

	ops    []cop
	labels map[string]int
	fused  int
}

// Len reports the compiled instruction count (1:1 with the source program —
// fusion specializes ops inside an instruction, it never merges across
// instruction boundaries, so Stats.Instructions stays comparable).
func (c *Compiled) Len() int { return len(c.ops) }

// Fused reports how many operations were fused into superinstruction forms,
// plus one per loop lowered into a kernel.
func (c *Compiled) Fused() int { return c.fused }

// Lookup resolves a label to a compiled pc.
func (c *Compiled) Lookup(label string) (int, bool) {
	i, ok := c.labels[label]
	return i, ok
}

// Compile verifies p and lowers it. A Compiled program cannot misbranch,
// fall off the end, or overflow the call stack at run time: Verify rejected
// those programs before this function lowered anything.
func Compile(p *Program) (*Compiled, error) {
	if err := Verify(p); err != nil {
		mcVerifyRejects.Add(1)
		return nil, err
	}
	c := &Compiled{Name: p.Name, Src: p, ops: make([]cop, len(p.Instrs)),
		labels: make(map[string]int, len(p.Instrs))}
	for pc, in := range p.Instrs {
		c.labels[in.Label] = pc
	}
	for pc := range p.Instrs {
		c.ops[pc] = c.compileInstr(p, pc)
		c.fused += c.ops[pc].fused
	}
	c.lowerLoops()
	mcProgramsCompiled.Add(1)
	mcFusedOps.Add(uint64(c.fused))
	return c, nil
}

// MustCompile is Compile panicking on error, for statically-known programs.
func MustCompile(p *Program) *Compiled {
	c, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Compiled) compileInstr(p *Program, pc int) cop {
	in := &p.Instrs[pc]
	op := cop{label: in.Label}

	for _, cd := range in.Conds {
		cc := ccond{kind: cdGeneric, a: compileAcc(cd.A), b: compileAcc(cd.B), cmp: cd.Cmp, bit: 1 << cd.Idx}
		if cc.a.kind == accReg && cc.b.kind == accImm {
			cc.kind = cdRegImm
			op.fused++
		}
		op.conds = append(op.conds, cc)
	}

	for _, m := range in.Moves {
		mv := cmove{kind: mvGeneric, dst: compileAcc(m.Dst), a: compileAcc(m.A), b: compileAcc(m.B), fn: m.Fn}
		if m.Dst.Width != 0 && m.Dst.Width < 64 {
			mv.crop = ^uint64(0) >> (64 - m.Dst.Width)
		}
		switch {
		case mv.dst.kind == accReg && mv.a.kind == accReg && mv.b.kind == accImm && m.Fn != Pass:
			mv.kind = mvRegOpImm
			op.fused++
		case mv.dst.kind == accReg && mv.a.kind == accImm && m.Fn == Pass:
			mv.kind = mvImm
			op.fused++
		case mv.dst.kind == accReg && mv.a.isLMem64() && m.Fn == Pass:
			mv.kind = mvRegLMem64
			op.fused++
		case mv.dst.isLMem64() && mv.a.isLMem64() && m.Fn == Pass:
			mv.kind = mvCopy64
			op.fused++
		case mv.dst.kind == accPtrBytes && mv.a.kind == accPtrBytes &&
			mv.dst.reg == mv.a.reg && mv.dst.byteOff == mv.a.byteOff &&
			mv.dst.nbytes == 4 && mv.a.nbytes == 4 &&
			mv.b.kind == accPtrBytes && mv.b.nbytes == 4 && m.Fn != Pass:
			mv.kind = mvPtrRMW32
			op.fused++
		}
		op.moves = append(op.moves, mv)
	}

	if len(in.XTXNs) > 0 {
		x := in.XTXNs[0] // MaxXTXNs == 1, enforced by validate
		op.xtxn = &x
		op.xaddr = compileAcc(x.Addr)
		if x.Kind.usesLen() {
			op.xlen = compileAcc(x.Len)
		}
	}

	lower := func(a Action) ccase {
		cc := ccase{kind: a.Kind, verdict: a.Verdict}
		switch a.Kind {
		case ActGoto, ActCall:
			cc.target = c.labels[a.Target] // Verify proved resolution
		case ActFallthrough:
			cc.kind = ActGoto
			cc.target = pc + 1 // Verify proved pc+1 exists
		}
		return cc
	}
	for _, bc := range in.Br.Cases {
		cc := lower(bc.Act)
		cc.mask, cc.want = bc.Mask, bc.Want
		op.cases = append(op.cases, cc)
	}
	op.def = lower(in.Br.Default)
	if len(op.cases) > 0 {
		op.sel = new([condValues]ccase)
		for bits := range op.sel {
			op.sel[bits] = *op.walk(uint8(bits))
		}
	}

	// Pick the lightest dispatch shape.
	allGoto := op.def.kind == ActGoto
	for _, cs := range op.cases {
		allGoto = allGoto && cs.kind == ActGoto
	}
	switch {
	case op.xtxn == nil && len(op.conds) == 0 && len(op.cases) == 0 && op.def.kind == ActGoto:
		op.tag = tMovesJump
	case op.xtxn == nil && allGoto:
		op.tag = tMovesBranch
	default:
		op.tag = tGeneric
	}
	return op
}

// rmw32 is the mvPtrRMW32 body: B's window is resolved before the
// destination's, matching the reference engine's fault order.
func (t *Thread) rmw32(m *cmove) {
	sa := t.ptrByteAddr(&m.b, 4)
	da := t.ptrByteAddr(&m.dst, 4)
	d := t.LMem[da : da+4]
	v := alu(m.fn, uint64(binary.BigEndian.Uint32(d)), uint64(binary.BigEndian.Uint32(t.LMem[sa:])))
	binary.BigEndian.PutUint32(d, uint32(v))
}

// execMove runs one unfused Move with the interpreter's cascade semantics:
// B is evaluated before A (matching the reference engine's fault order), the
// result is cropped to the destination width, then written.
func (t *Thread) execMove(m *cmove) {
	var b uint64
	if m.fn != Pass {
		b = t.load(&m.b)
	}
	v := alu(m.fn, t.load(&m.a), b)
	if m.dst.kind == accReg {
		t.Regs[m.dst.reg] = v // full width: nothing to crop
		return
	}
	if m.crop != 0 {
		v &= m.crop
	}
	t.writeAcc(&m.dst, v)
}

// gotoes reports whether the action is a goto to instruction pc.
func (a *ccase) gotoes(pc int) bool { return a.kind == ActGoto && a.target == pc }

// pick selects the action of a multi-way branch under condition bits conds:
// one load from its branch table.
func (op *cop) pick(conds uint8) *ccase {
	if op.sel != nil {
		return &op.sel[conds%condValues]
	}
	return &op.def
}

// walk is pick by a walk of the cases, which fills the branch table: the
// first case that matches, else the default.
func (op *cop) walk(conds uint8) *ccase {
	for i := range op.cases {
		if cs := &op.cases[i]; conds&cs.mask == cs.want {
			return cs
		}
	}
	return &op.def
}

// RunCompiled executes a compiled program from the entry label until the
// thread exits, under the default budget.
func RunCompiled(c *Compiled, t *Thread, entry string) (Verdict, error) {
	return RunCompiledLimited(c, t, entry, DefaultBudget)
}

// RunCompiledLimited is RunCompiledAt from a label.
func RunCompiledLimited(c *Compiled, t *Thread, entry string, budget uint64) (Verdict, error) {
	pc, ok := c.labels[entry]
	if !ok {
		return VerdictNone, fmt.Errorf("microcode: entry label %q not found", entry)
	}
	return RunCompiledAt(c, t, pc, budget)
}

// RunCompiledAt is the direct-threaded dispatch loop, entered at instruction
// index pc (from Lookup; a dispatcher resolves its entry label once, not per
// packet): a flat array of pre-decoded ops, integer branch targets, a
// fixed-depth call stack, and no allocation after entry. Its observable
// behaviour — Stats, Verdict, Now, registers, local memory, fault classes —
// is bit-identical to RunLimited on the same program.
func RunCompiledAt(c *Compiled, t *Thread, pc int, budget uint64) (v Verdict, err error) {
	if pc < 0 || pc >= len(c.ops) {
		return VerdictNone, fmt.Errorf("microcode: entry pc %d outside program of %d instructions", pc, len(c.ops))
	}
	start := t.Stats.Instructions
	defer func() {
		mcDispatchInstrs.Add(t.Stats.Instructions - start)
		if r := recover(); r != nil {
			if f, ok := r.(threadFault); ok {
				v, err = VerdictNone, fmt.Errorf("%w: %s", ErrFault, f.msg)
				return
			}
			panic(r)
		}
	}()
	return c.run(t, pc, budget)
}

func (c *Compiled) run(t *Thread, pc int, budget uint64) (Verdict, error) {
	var stack [MaxCallDepth]int
	sp := 0
	for n := uint64(0); ; n++ {
		if n >= budget {
			return VerdictNone, fmt.Errorf("%w at %q", ErrBudget, c.ops[pc].label)
		}
		op := &c.ops[pc]
		if op.tag == tLoopHead && t.TracePC == nil {
			// Whole passes the kernel proves equivalent to stepping retire
			// here; whatever it declines (a pass that would fault or outrun
			// the budget) steps through the ordinary path below.
			if done, next := op.loop.run(t, c.ops, budget-n); done > 0 {
				n += done - 1
				pc = next
				continue
			}
		}
		t.Stats.Instructions++
		if t.TracePC != nil {
			t.TracePC(pc)
		}

		// Phases 1 and 2, in the reference interpreter's order: Condition
		// ALUs on pre-instruction state, then the Move ALUs in cascade. The
		// fused shapes run here without a call.
		t.conds = 0
		for i := range op.conds {
			cd := &op.conds[i]
			var hold bool
			if cd.kind == cdRegImm {
				hold = compare(cd.cmp, t.Regs[cd.a.reg], cd.b.val)
			} else {
				hold = compare(cd.cmp, t.load(&cd.a), t.load(&cd.b))
			}
			if hold {
				t.conds |= cd.bit
			}
		}
		for i := range op.moves {
			m := &op.moves[i]
			switch m.kind {
			case mvRegOpImm:
				t.Regs[m.dst.reg] = alu(m.fn, t.Regs[m.a.reg], m.b.val)
			case mvImm:
				t.Regs[m.dst.reg] = m.a.val
			case mvRegLMem64:
				t.Regs[m.dst.reg] = binary.BigEndian.Uint64(t.LMem[m.a.byteOff:])
			case mvCopy64:
				// A whole-word load then store: overlapping windows copy as
				// the interpreter's read-then-write does.
				binary.BigEndian.PutUint64(t.LMem[m.dst.byteOff:], binary.BigEndian.Uint64(t.LMem[m.a.byteOff:]))
			case mvPtrRMW32:
				t.rmw32(m)
			default:
				t.execMove(m)
			}
		}

		if op.tag != tGeneric {
			// No XTXN and every action a goto: sequencing is one target pick.
			t.Now += InstrTime
			pc = op.pick(t.conds).target
			continue
		}

		// tGeneric: the XTXN phase and the full action set.
		if x := op.xtxn; x != nil {
			err := t.beginXTXN()
			if err == nil {
				addr := t.load(&op.xaddr)
				err = t.doXTXN(x, addr, t.load(&op.xlen))
			}
			if err != nil {
				return VerdictNone, fmt.Errorf("microcode: %q: %w", op.label, err)
			}
		}
		t.Now += InstrTime
		act := op.pick(t.conds)
		switch act.kind {
		case ActGoto:
			pc = act.target
		case ActCall:
			if sp >= MaxCallDepth {
				return VerdictNone, fmt.Errorf("%w at %q", ErrCallDepth, op.label)
			}
			stack[sp] = pc + 1
			sp++
			pc = act.target
		case ActReturn:
			if sp == 0 {
				return VerdictNone, fmt.Errorf("%w at %q", ErrRetEmpty, op.label)
			}
			sp--
			pc = stack[sp]
		case ActExit:
			return act.verdict, nil
		}
	}
}
