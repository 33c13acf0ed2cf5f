// Package microcode implements Trio's programming model (§2.2–§3 of the
// paper): a VLIW micro-instruction set executed by PPE threads, and the
// Trio-Compiler-style assembler for the C-like Microcode language of §3.2.
//
// The execution model reproduced here:
//
//   - A program is a sequence of labelled micro-instructions. Each
//     instruction bundles Condition-ALU operations (producing 1-bit
//     condition results), Move-ALU operations (producing results written to
//     registers or thread-local memory), at most one external transaction
//     (XTXN), and a multi-way branch selected by the condition results.
//   - Every ALU operand and Move result is a bit-field of arbitrary length
//     (up to 64 bits here; the hardware does 32) at an arbitrary bit offset
//     in a register or local memory.
//   - One instruction is in flight per thread at a time; all operand reads
//     observe pre-instruction state, so there is no intra-thread forwarding.
//   - Calls nest up to eight levels deep.
//   - Like TC, validation fails a program whose single instruction exceeds
//     the per-instruction resource budget (four register reads or two local
//     memory reads, and two writes) instead of splitting it automatically.
package microcode

import (
	"fmt"
)

// Per-instruction resource limits (§3.1 "Instruction boundary") and
// architectural constants (§2.2).
const (
	MaxRegReads   = 4
	MaxLMemReads  = 2
	MaxWrites     = 2
	MaxCondOps    = 4
	MaxXTXNs      = 1
	MaxBranchWays = 8 // "a target block of one to eight micro-instructions"
	MaxCallDepth  = 8
	NumRegs       = 32   // 64-bit general-purpose registers per thread
	LMemBytes     = 1280 // 1.25 KB of local memory per thread
)

// OperandKind selects where an operand's bits come from.
type OperandKind int

const (
	// Imm is an immediate constant.
	Imm OperandKind = iota
	// Reg is a bit-field of a general-purpose register.
	Reg
	// LMem is a bit-field of thread-local memory.
	LMem
	// LMemPtr is a bit-field of thread-local memory addressed through a
	// pointer register: the byte address is Regs[Reg] + Off/8. §2.2: "the
	// local memory can be accessed on any byte boundary, using either
	// pointer registers or an address contained in the micro-instruction."
	LMemPtr
)

// Operand is one ALU input or output: an immediate, or a bit-field of a
// register or of local memory. Width 0 on a register operand means the full
// 64 bits.
type Operand struct {
	Kind  OperandKind
	Val   uint64 // Imm only
	Reg   int    // Reg only
	Off   uint   // bit offset: within the register (from MSB=0? no: from LSB) or absolute in LMEM
	Width uint   // bit width; 0 = full register (Reg only)
}

// Register operand bit-fields address bits [Off, Off+Width) counting from
// the least-significant bit, which matches how Microcode arithmetic sees
// register contents. LMEM operand bit-fields use the MSB-first network
// order of package bitfield, matching packet headers loaded into LMEM.

// R returns a full-register operand.
func R(r int) Operand { return Operand{Kind: Reg, Reg: r} }

// RField returns a register bit-field operand ([off, off+width) from LSB).
func RField(r int, off, width uint) Operand {
	return Operand{Kind: Reg, Reg: r, Off: off, Width: width}
}

// L returns a local-memory bit-field operand at absolute bit offset off.
func L(off, width uint) Operand { return Operand{Kind: LMem, Off: off, Width: width} }

// LPtr returns a pointer-register local-memory operand: width bits at byte
// address Regs[reg] + byteOff.
func LPtr(reg int, byteOff int, width uint) Operand {
	return Operand{Kind: LMemPtr, Reg: reg, Off: uint(byteOff) * 8, Width: width}
}

// Imm64 returns an immediate operand.
func Imm64(v uint64) Operand { return Operand{Kind: Imm, Val: v} }

// ALUFn is a Move-ALU function.
type ALUFn int

// Move-ALU functions. Pass ignores B.
const (
	Pass ALUFn = iota
	Add
	Sub
	And
	Or
	Xor
	Shl
	Shr
	Mul
)

func (f ALUFn) String() string {
	switch f {
	case Pass:
		return "pass"
	case Add:
		return "add"
	case Sub:
		return "sub"
	case And:
		return "and"
	case Or:
		return "or"
	case Xor:
		return "xor"
	case Shl:
		return "shl"
	case Shr:
		return "shr"
	case Mul:
		return "mul"
	}
	return fmt.Sprintf("ALUFn(%d)", int(f))
}

// CmpFn is a Condition-ALU comparison (unsigned).
type CmpFn int

// Condition-ALU comparisons.
const (
	Eq CmpFn = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (f CmpFn) String() string {
	return [...]string{"==", "!=", "<", "<=", ">", ">="}[f]
}

// CondOp is a Condition-ALU operation: it compares A to B and stores the
// 1-bit result as condition bit Idx for the instruction's branch logic.
type CondOp struct {
	A, B Operand
	Cmp  CmpFn
	Idx  int // condition bit index, 0..MaxCondOps-1
}

// MoveOp is a Move-ALU operation: Dst <- Fn(A, B). Dst must be a Reg or
// LMem operand; its Width crops the result.
type MoveOp struct {
	Dst  Operand
	A, B Operand
	Fn   ALUFn
}

// XTXNKind selects an external-transaction target block (§3.1).
type XTXNKind int

// External transaction kinds.
const (
	// XTXNMemRead reads Size bytes from shared memory address Addr into
	// local memory at byte offset LMemOff.
	XTXNMemRead XTXNKind = iota
	// XTXNMemWrite writes Size bytes from local memory offset LMemOff to
	// shared memory address Addr.
	XTXNMemWrite
	// XTXNCounterInc issues CounterIncPhys(Addr, Len) (§3.2).
	XTXNCounterInc
	// XTXNReadTail reads Size bytes of the packet tail starting at tail
	// offset Addr into local memory at LMemOff.
	XTXNReadTail
	// XTXNWriteTail writes Size bytes from local memory at LMemOff into the
	// packet tail at tail offset Addr — the Packet Buffer (PMEM) write the
	// result-build loop of Fig. 10 uses.
	XTXNWriteTail
	// XTXNHashLookup looks up key Addr; the value lands in the reply
	// register (thread register 31 by convention) and condition bit 3 is
	// set on hit.
	XTXNHashLookup
	// XTXNHashInsert inserts key Addr with value Len.
	XTXNHashInsert
	// XTXNHashDelete deletes key Addr.
	XTXNHashDelete
)

// XTXNReplyReg receives XTXN reply data (hash lookup values).
const XTXNReplyReg = 31

// XTXNHitCond is the condition bit set by a successful hash lookup.
const XTXNHitCond = 3

// XTXN is an external transaction issued by an instruction. Synchronous
// XTXNs suspend the thread until the reply arrives; asynchronous ones let it
// continue (§3.1).
type XTXN struct {
	Kind    XTXNKind
	Addr    Operand // memory address / hash key / tail offset
	Len     Operand // packet length (counters), value (hash insert)
	Size    int     // bytes for memory/tail transfers
	LMemOff uint    // byte offset in local memory for transfer data
	Async   bool
}

// ActionKind is what an instruction does after executing its ALU ops.
type ActionKind int

// Sequencing actions.
const (
	// ActGoto continues at a labelled instruction.
	ActGoto ActionKind = iota
	// ActCall pushes the return site and jumps (≤ MaxCallDepth deep).
	ActCall
	// ActReturn pops the call stack.
	ActReturn
	// ActExit terminates the thread with a verdict.
	ActExit
	// ActFallthrough continues at the next instruction in program order.
	ActFallthrough
)

// Verdict is the thread's final disposition of its packet.
type Verdict int

// Thread verdicts.
const (
	// VerdictNone means the thread has not exited yet.
	VerdictNone Verdict = iota
	// VerdictForward forwards the (possibly rewritten) packet.
	VerdictForward
	// VerdictDrop drops the packet.
	VerdictDrop
	// VerdictConsume consumes the packet without forwarding (e.g. it was
	// aggregated into shared state).
	VerdictConsume
)

func (v Verdict) String() string {
	switch v {
	case VerdictNone:
		return "none"
	case VerdictForward:
		return "forward"
	case VerdictDrop:
		return "drop"
	case VerdictConsume:
		return "consume"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Action is one sequencing outcome.
type Action struct {
	Kind    ActionKind
	Target  string // ActGoto/ActCall
	Verdict Verdict
}

// BranchCase selects an action when (conds & Mask) == Want.
type BranchCase struct {
	Mask, Want uint8
	Act        Action
}

// Branch is the instruction's sequencing logic: cases are evaluated in
// order; Default applies when none match.
type Branch struct {
	Cases   []BranchCase
	Default Action
}

// Instruction is one micro-instruction.
type Instruction struct {
	Label string
	Conds []CondOp
	Moves []MoveOp
	XTXNs []XTXN
	Br    Branch
}

// Program is a validated, linked micro-program.
type Program struct {
	Name   string
	Instrs []Instruction
	labels map[string]int
}

// NewProgram links instructions into a program, resolving labels and
// enforcing TC's per-instruction resource limits. It returns an error (as TC
// "fails the compilation") rather than splitting oversized instructions.
func NewProgram(name string, instrs []Instruction) (*Program, error) {
	p := &Program{Name: name, Instrs: instrs, labels: make(map[string]int, len(instrs))}
	for i, in := range instrs {
		if in.Label == "" {
			return nil, fmt.Errorf("microcode: instruction %d has no label", i)
		}
		if _, dup := p.labels[in.Label]; dup {
			return nil, fmt.Errorf("microcode: duplicate label %q", in.Label)
		}
		p.labels[in.Label] = i
	}
	for i := range instrs {
		if err := p.validate(&instrs[i]); err != nil {
			return nil, fmt.Errorf("microcode: instruction %q: %w", instrs[i].Label, err)
		}
	}
	return p, nil
}

// MustProgram is NewProgram panicking on error, for statically-known
// programs.
func MustProgram(name string, instrs []Instruction) *Program {
	p, err := NewProgram(name, instrs)
	if err != nil {
		panic(err)
	}
	return p
}

// Len reports the static instruction count (the paper reports Trio-ML at
// ≈60 instructions).
func (p *Program) Len() int { return len(p.Instrs) }

// Lookup resolves a label to an instruction index.
func (p *Program) Lookup(label string) (int, bool) {
	i, ok := p.labels[label]
	return i, ok
}

func countOperand(o Operand, regReads, lmemReads *int) {
	switch o.Kind {
	case Reg:
		*regReads++
	case LMem:
		*lmemReads++
	case LMemPtr:
		// A pointer access reads the pointer register and local memory.
		*regReads++
		*lmemReads++
	}
}

func (p *Program) validate(in *Instruction) error {
	var regReads, lmemReads, writes int
	if len(in.Conds) > MaxCondOps {
		return fmt.Errorf("%d condition ops exceeds %d", len(in.Conds), MaxCondOps)
	}
	if len(in.XTXNs) > MaxXTXNs {
		return fmt.Errorf("%d XTXNs exceeds %d", len(in.XTXNs), MaxXTXNs)
	}
	seen := map[int]bool{}
	for _, c := range in.Conds {
		if c.Idx < 0 || c.Idx >= MaxCondOps {
			return fmt.Errorf("condition index %d out of range", c.Idx)
		}
		if seen[c.Idx] {
			return fmt.Errorf("condition index %d assigned twice", c.Idx)
		}
		seen[c.Idx] = true
		countOperand(c.A, &regReads, &lmemReads)
		countOperand(c.B, &regReads, &lmemReads)
		if err := checkOperand(c.A); err != nil {
			return err
		}
		if err := checkOperand(c.B); err != nil {
			return err
		}
	}
	for _, m := range in.Moves {
		if m.Dst.Kind == Imm {
			return fmt.Errorf("move destination cannot be immediate")
		}
		writes++
		countOperand(m.A, &regReads, &lmemReads)
		if m.Fn != Pass {
			countOperand(m.B, &regReads, &lmemReads)
		}
		for _, o := range []Operand{m.Dst, m.A, m.B} {
			if err := checkOperand(o); err != nil {
				return err
			}
		}
	}
	for _, x := range in.XTXNs {
		countOperand(x.Addr, &regReads, &lmemReads)
		countOperand(x.Len, &regReads, &lmemReads)
		if x.Size < 0 || x.Size > LMemBytes {
			return fmt.Errorf("XTXN size %d invalid", x.Size)
		}
		if int(x.LMemOff)+x.Size > LMemBytes {
			return fmt.Errorf("XTXN local memory window [%d,%d) overflows %d bytes", x.LMemOff, int(x.LMemOff)+x.Size, LMemBytes)
		}
	}
	if regReads > MaxRegReads {
		return fmt.Errorf("%d register reads exceeds %d (split the instruction)", regReads, MaxRegReads)
	}
	if lmemReads > MaxLMemReads {
		return fmt.Errorf("%d local memory reads exceeds %d (split the instruction)", lmemReads, MaxLMemReads)
	}
	if writes > MaxWrites {
		return fmt.Errorf("%d writes exceeds %d (split the instruction)", writes, MaxWrites)
	}
	ways := len(in.Br.Cases) + 1
	if ways > MaxBranchWays {
		return fmt.Errorf("%d-way branch exceeds %d", ways, MaxBranchWays)
	}
	for _, bc := range in.Br.Cases {
		if err := p.checkAction(bc.Act); err != nil {
			return err
		}
	}
	return p.checkAction(in.Br.Default)
}

func (p *Program) checkAction(a Action) error {
	switch a.Kind {
	case ActGoto, ActCall:
		if _, ok := p.labels[a.Target]; !ok {
			return fmt.Errorf("undefined label %q", a.Target)
		}
	case ActExit:
		if a.Verdict == VerdictNone {
			return fmt.Errorf("exit without a verdict")
		}
	}
	return nil
}

func checkOperand(o Operand) error {
	switch o.Kind {
	case Imm:
		return nil
	case Reg:
		if o.Reg < 0 || o.Reg >= NumRegs {
			return fmt.Errorf("register r%d out of range", o.Reg)
		}
		if o.Width == 0 {
			return nil
		}
		if o.Off+o.Width > 64 {
			return fmt.Errorf("register bit-field [%d,%d) overflows 64 bits", o.Off, o.Off+o.Width)
		}
	case LMem:
		if o.Width == 0 || o.Width > 64 {
			return fmt.Errorf("local memory operand width %d invalid", o.Width)
		}
		if o.Off+o.Width > LMemBytes*8 {
			return fmt.Errorf("local memory bit-field [%d,%d) overflows", o.Off, o.Off+o.Width)
		}
	case LMemPtr:
		if o.Reg < 0 || o.Reg >= NumRegs {
			return fmt.Errorf("pointer register r%d out of range", o.Reg)
		}
		if o.Width == 0 || o.Width > 64 {
			return fmt.Errorf("pointer operand width %d invalid", o.Width)
		}
		if o.Off%8 != 0 {
			return fmt.Errorf("pointer operand static offset must be byte-aligned")
		}
		// The dynamic byte address is bounds-checked at run time.
	}
	return nil
}
