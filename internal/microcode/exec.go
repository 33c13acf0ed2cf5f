package microcode

import (
	"errors"
	"fmt"

	"github.com/trioml/triogo/internal/bitfield"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/smem"
)

// Env is the set of XTXN targets a thread can reach over the crossbar:
// shared memory, the counter block, the hash engine, and the packet-tail
// path of the Memory and Queueing Subsystem. ChipEnv implements it on the
// chip (pfe.MicrocodeApp), memEnv in memory for cost runs (RunPackets).
//
// Reply lifetime: the slice MemRead or ReadTail returns is only valid until
// the next call on the Env. The engine copies it into local memory before it
// issues anything else, so an implementation may return a view of its own
// storage or reuse one staging buffer for every reply. Conversely, the data
// slice passed to MemWrite and WriteTail aliases the thread's local memory
// and must not be retained past the call.
//
// Tail offsets come straight from a program operand and may be negative or
// past the end; ClipTail gives the clipping every ReadTail must apply.
type Env interface {
	MemRead(now sim.Time, addr uint64, size int) ([]byte, sim.Time)
	MemWrite(now sim.Time, addr uint64, data []byte) sim.Time
	CounterInc(now sim.Time, addr uint64, pktLen uint32) sim.Time
	ReadTail(now sim.Time, off, size int) ([]byte, sim.Time)
	WriteTail(now sim.Time, off int, data []byte) sim.Time
	HashLookup(now sim.Time, key uint64) (val uint64, ok bool, done sim.Time)
	HashInsert(now sim.Time, key, val uint64) (ok bool, done sim.Time)
	HashDelete(now sim.Time, key uint64) (ok bool, done sim.Time)
}

// One instruction costs InstrTime on every engine: the interpreter, the
// compiled dispatcher and a native PFE app's Ctx.ChargeInstr. "Each
// instruction takes multiple clock cycles" (§2.2), and a thread has one
// instruction in flight at a time, so its per-instruction latency is the
// PPE pipeline depth: CyclesPerInstr cycles of the 1 GHz clock (§6.3).
const (
	CyclesPerInstr = 20
	InstrTime      = CyclesPerInstr * smem.CycleTime
)

// Stats counts a thread's dynamic behaviour. The §6.3 analysis
// ("≈1.2 run-time instructions per gradient") is reproduced from these
// counters.
type Stats struct {
	Instructions uint64
	XTXNs        uint64
	SyncStall    sim.Time // time spent suspended on synchronous XTXN replies
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Instructions += o.Instructions
	s.XTXNs += o.XTXNs
	s.SyncStall += o.SyncStall
}

// Thread is one PPE thread: 1.25 KB of local memory, 32 general-purpose
// registers, and a call stack up to eight deep (§2.2). A thread is created
// per packet head (or per timer firing) and destroyed on exit.
type Thread struct {
	LMem  [LMemBytes]byte
	Regs  [NumRegs]uint64
	Env   Env
	Now   sim.Time
	Stats Stats

	// TracePC, when non-nil, is invoked with the instruction index about to
	// execute — before its ALU phases. Both the reference interpreter and the
	// compiled dispatcher honour it, which is what lets tests cross-check the
	// two engines instruction for instruction.
	TracePC func(pc int)

	conds uint8
	stack []int
}

// NewThread returns a thread bound to env with its clock at start.
func NewThread(env Env, start sim.Time) *Thread {
	return &Thread{Env: env, Now: start}
}

// Reset returns t to the state NewThread(env, start) creates — zeroed local
// memory, registers and statistics, no trace hook — so a dispatcher can
// recycle one Thread across packets instead of allocating 1.5 KB for each.
func (t *Thread) Reset(env Env, start sim.Time) {
	*t = Thread{Env: env, Now: start, stack: t.stack[:0]}
}

// ClipTail returns the window [off, off+size) of a packet tail the way
// ReadTail XTXNs see it: a read running past the end is short, and an offset
// outside the tail (negative, or beyond its end) reads nothing.
func ClipTail(tail []byte, off, size int) []byte {
	if off < 0 || off > len(tail) {
		return nil
	}
	if size > len(tail)-off {
		size = len(tail) - off
	}
	return tail[off : off+size]
}

// LoadHead copies a packet head into the bottom of local memory, as the
// dispatch hardware does before the thread starts (§2.2).
func (t *Thread) LoadHead(head []byte) {
	if len(head) > LMemBytes {
		panic(fmt.Sprintf("microcode: %d-byte head exceeds %d-byte local memory", len(head), LMemBytes))
	}
	copy(t.LMem[:], head)
}

// threadFault is a run-time execution fault (e.g. a pointer-register access
// outside local memory); RunLimited converts it into an error.
type threadFault struct{ msg string }

// ErrFault tags run-time thread faults.
var ErrFault = errors.New("microcode: thread fault")

// ptrBitOff resolves a pointer-register operand to an absolute LMEM bit
// offset, faulting when the window leaves local memory.
func (t *Thread) ptrBitOff(o Operand) uint {
	byteAddr := t.Regs[o.Reg] + uint64(o.Off/8)
	end := byteAddr + uint64((o.Width+7)/8)
	if end > LMemBytes || end < byteAddr { // past the end, or wrapped around 2^64
		panic(threadFault{fmt.Sprintf("pointer access r%d -> [%d,%d) outside %d-byte local memory", o.Reg, byteAddr, end, LMemBytes)})
	}
	return uint(byteAddr) * 8
}

// read evaluates an operand against the thread's current state.
func (t *Thread) read(o Operand) uint64 {
	switch o.Kind {
	case Imm:
		return o.Val
	case Reg:
		v := t.Regs[o.Reg]
		if o.Width == 0 {
			return v
		}
		return v >> o.Off & (^uint64(0) >> (64 - o.Width))
	case LMem:
		return bitfield.Get(t.LMem[:], o.Off, o.Width)
	case LMemPtr:
		return bitfield.Get(t.LMem[:], t.ptrBitOff(o), o.Width)
	}
	panic("microcode: bad operand kind")
}

// write stores a Move-ALU result into its destination.
func (t *Thread) write(dst Operand, v uint64) {
	switch dst.Kind {
	case Reg:
		if dst.Width == 0 {
			t.Regs[dst.Reg] = v
			return
		}
		mask := ^uint64(0) >> (64 - dst.Width) << dst.Off
		t.Regs[dst.Reg] = t.Regs[dst.Reg]&^mask | v<<dst.Off&mask
	case LMem:
		bitfield.Put(t.LMem[:], dst.Off, dst.Width, v)
	case LMemPtr:
		bitfield.Put(t.LMem[:], t.ptrBitOff(dst), dst.Width, v)
	default:
		panic("microcode: bad move destination")
	}
}

func alu(fn ALUFn, a, b uint64) uint64 {
	switch fn {
	case Pass:
		return a
	case Add:
		return a + b
	case Sub:
		return a - b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Shl:
		return a << (b & 63)
	case Shr:
		return a >> (b & 63)
	case Mul:
		return a * b
	}
	panic("microcode: bad ALU function")
}

func compare(fn CmpFn, a, b uint64) bool {
	switch fn {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	panic("microcode: bad comparison")
}

// Execution errors.
var (
	ErrBudget    = errors.New("microcode: instruction budget exceeded")
	ErrCallDepth = errors.New("microcode: call stack overflow")
	ErrRetEmpty  = errors.New("microcode: return with empty call stack")
	ErrFellOff   = errors.New("microcode: fell off the end of the program")
	ErrBadLabel  = errors.New("microcode: branch to unresolved label")
)

// DefaultBudget bounds runaway programs in tests and the simulator. Trio
// itself imposes no limit ("no fixed limit on the number ... of
// instructions", §8); this is a safety net, not an architectural bound.
const DefaultBudget = 1 << 20

// Run executes the program from the entry label until the thread exits,
// under the default budget.
func Run(p *Program, t *Thread, entry string) (Verdict, error) {
	return RunLimited(p, t, entry, DefaultBudget)
}

// RunLimited executes under an instruction budget.
// Run-time faults (pointer accesses outside local memory) terminate the
// thread with an error wrapping ErrFault, as the hardware would kill a
// misbehaving thread.
func RunLimited(p *Program, t *Thread, entry string, budget uint64) (v Verdict, err error) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(threadFault); ok {
				v, err = VerdictNone, fmt.Errorf("%w: %s", ErrFault, f.msg)
				return
			}
			panic(r)
		}
	}()
	return runLimited(p, t, entry, budget)
}

func runLimited(p *Program, t *Thread, entry string, budget uint64) (Verdict, error) {
	pc, ok := p.Lookup(entry)
	if !ok {
		return VerdictNone, fmt.Errorf("microcode: entry label %q not found", entry)
	}
	for n := uint64(0); ; n++ {
		if n >= budget {
			return VerdictNone, fmt.Errorf("%w at %q", ErrBudget, p.Instrs[pc].Label)
		}
		in := &p.Instrs[pc]
		t.Stats.Instructions++
		if t.TracePC != nil {
			t.TracePC(pc)
		}

		// Phase 1: Condition ALUs, reading pre-instruction state.
		t.conds = 0
		for _, c := range in.Conds {
			if compare(c.Cmp, t.read(c.A), t.read(c.B)) {
				t.conds |= 1 << c.Idx
			}
		}

		// Phase 2: Move ALUs. Within one VLIW instruction the ALUs cascade
		// through operand/result selection (§2.2: "the results from the
		// Condition ALUs can be used as inputs to the Move ALUs"), so each
		// Move observes the results of earlier Moves in the same bundle.
		// No state forwards *between* instructions before writeback.
		for _, m := range in.Moves {
			var b uint64
			if m.Fn != Pass {
				b = t.read(m.B)
			}
			v := alu(m.Fn, t.read(m.A), b)
			if m.Dst.Width != 0 && m.Dst.Width < 64 {
				v &= ^uint64(0) >> (64 - m.Dst.Width)
			}
			t.write(m.Dst, v)
		}

		// Phase 3: the external transaction, if any.
		for i := range in.XTXNs {
			if err := t.issueXTXN(&in.XTXNs[i]); err != nil {
				return VerdictNone, fmt.Errorf("microcode: %q: %w", in.Label, err)
			}
		}

		// Charge the instruction's execution time.
		t.Now += InstrTime

		// Phase 4: sequencing.
		act := in.Br.Default
		for _, bc := range in.Br.Cases {
			if t.conds&bc.Mask == bc.Want {
				act = bc.Act
				break
			}
		}
		switch act.Kind {
		case ActGoto:
			npc, ok := p.Lookup(act.Target)
			if !ok {
				return VerdictNone, fmt.Errorf("%w: %q at %q", ErrBadLabel, act.Target, in.Label)
			}
			pc = npc
		case ActCall:
			if len(t.stack) >= MaxCallDepth {
				return VerdictNone, fmt.Errorf("%w at %q", ErrCallDepth, in.Label)
			}
			npc, ok := p.Lookup(act.Target)
			if !ok {
				return VerdictNone, fmt.Errorf("%w: %q at %q", ErrBadLabel, act.Target, in.Label)
			}
			t.stack = append(t.stack, pc+1)
			pc = npc
		case ActReturn:
			if len(t.stack) == 0 {
				return VerdictNone, fmt.Errorf("%w at %q", ErrRetEmpty, in.Label)
			}
			pc = t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			if pc >= len(p.Instrs) {
				return VerdictNone, fmt.Errorf("%w (return past end)", ErrFellOff)
			}
		case ActExit:
			return act.Verdict, nil
		case ActFallthrough:
			pc++
			if pc >= len(p.Instrs) {
				return VerdictNone, ErrFellOff
			}
		}
	}
}

// beginXTXN is the part of an XTXN issue that precedes operand evaluation:
// both engines count the transaction before an operand can fault.
func (t *Thread) beginXTXN() error {
	if t.Env == nil {
		return errors.New("XTXN issued with no environment")
	}
	t.Stats.XTXNs++
	return nil
}

// usesLen reports whether the kind reads the Len operand.
func (k XTXNKind) usesLen() bool { return k == XTXNCounterInc || k == XTXNHashInsert }

// issueXTXN is the reference engine's XTXN phase: operands are evaluated
// through the tree-walking read, Addr before Len.
func (t *Thread) issueXTXN(x *XTXN) error {
	if err := t.beginXTXN(); err != nil {
		return err
	}
	addr := t.read(x.Addr)
	var ln uint64
	if x.Kind.usesLen() {
		ln = t.read(x.Len)
	}
	return t.doXTXN(x, addr, ln)
}

// doXTXN performs the transaction with its operands already evaluated.
func (t *Thread) doXTXN(x *XTXN, addr, ln uint64) error {
	issue := t.Now
	var done sim.Time
	switch x.Kind {
	case XTXNMemRead:
		data, d := t.Env.MemRead(issue, addr, x.Size)
		copy(t.LMem[x.LMemOff:], data)
		done = d
	case XTXNMemWrite:
		done = t.Env.MemWrite(issue, addr, t.LMem[x.LMemOff:int(x.LMemOff)+x.Size])
	case XTXNCounterInc:
		done = t.Env.CounterInc(issue, addr, uint32(ln))
	case XTXNReadTail:
		data, d := t.Env.ReadTail(issue, int(addr), x.Size)
		copy(t.LMem[x.LMemOff:], data)
		done = d
	case XTXNWriteTail:
		done = t.Env.WriteTail(issue, int(addr), t.LMem[x.LMemOff:int(x.LMemOff)+x.Size])
	case XTXNHashLookup:
		val, ok, d := t.Env.HashLookup(issue, addr)
		t.Regs[XTXNReplyReg] = val
		t.setHit(ok)
		done = d
	case XTXNHashInsert:
		ok, d := t.Env.HashInsert(issue, addr, ln)
		t.setHit(ok)
		done = d
	case XTXNHashDelete:
		ok, d := t.Env.HashDelete(issue, addr)
		t.setHit(ok)
		done = d
	default:
		return fmt.Errorf("unknown XTXN kind %d", x.Kind)
	}
	// Synchronous XTXNs suspend the thread until the reply arrives;
	// asynchronous ones continue immediately (§3.1).
	if !x.Async && done > t.Now {
		t.Stats.SyncStall += done - t.Now
		t.Now = done
	}
	return nil
}

// setHit records a hash-engine reply in the hit condition bit.
func (t *Thread) setHit(ok bool) {
	if ok {
		t.conds |= 1 << XTXNHitCond
	} else {
		t.conds &^= 1 << XTXNHitCond
	}
}
