package microcode

import (
	"encoding/binary"
	"math"
	"slices"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
)

// Counted-loop kernels. Fig. 10's inner loop — one fused 32-bit
// read-modify-write per gradient, a pointer step, a lane countdown and a
// back edge — retires two dispatched instructions per gradient. lowerLoops
// recognises that loop shape after fusion and attaches a loopKernel to its
// head; the dispatcher then hands the head to loopKernel.run, which executes
// a whole pass (every body instruction plus the control instruction) per
// iteration of a plain Go loop.
//
// The lowering rule. A loop is lowered when, following unconditional jumps
// from a head instruction h,
//
//   - every body instruction is moves-only (tMovesJump) and its first move is
//     a mvPtrRMW32 — all through the same destination pointer register and
//     the same source pointer register, at per-lane static offsets;
//   - only the last body instruction carries further moves, each a
//     full-register `r = r ± imm` step;
//   - the chain ends at a control instruction with no XTXN, only cdRegImm
//     compares and only `r = r ± imm` moves, and one of its goto actions
//     targets h.
//
// The ops stay in place and 1:1 with the source: a jump into the middle of
// the body, a trace hook, or a pass the kernel declines all step through them
// as before.
//
// When the control instruction is a plain count — one compare, and the loop
// continues exactly while the compared register differs from the immediate —
// the kernel also knows, from the registers alone, a number of passes that
// must all take the back edge (loopCount.ahead). It runs the lanes of those
// passes back to back and advances every stepped register once, by that many
// passes' worth; the remaining passes, the leaving one included, go through
// the per-pass loop.
//
// When every lane adds and lane j sits at byte 4j from the first lane on
// both sides, a pass is one contiguous run of big-endian int32 adds — and so
// are consecutive passes whose pointers both step by the pass's width. Such a
// block is one packet.AddLanes call when its destination and source windows
// are identical or disjoint: then no lane reads a byte another lane of the
// block writes (or only its own), so the order the lanes run in cannot show.
// Partly overlapping windows, and any other lane set, take the lane-at-a-time
// loop, which is stepping's order.

// laneRMW is one body instruction of a lowered loop: a 32-bit
// read-modify-write at static offsets from the loop's two pointer registers.
type laneRMW struct {
	doff, soff uint64
	fn         ALUFn
}

// regStep is `r = r ± imm` as a wrapping add.
type regStep struct {
	reg   int
	delta uint64
}

type loopKernel struct {
	head, ctl  int // pcs of the first body instruction and the control instruction
	dreg, sreg int // destination / source pointer registers of every lane
	// dmax / smax are the largest pointer values for which every lane of a
	// pass stays inside local memory: one compare per register is the bounds
	// check of the whole pass.
	dmax, smax uint64
	lanes      []laneRMW
	addWidth   uint64     // 4*len(lanes) when the lanes are one contiguous add, else 0
	steps      []regStep  // steps of the last body instruction
	ctlSteps   []regStep  // moves of the control instruction
	passLen    uint64     // len(lanes) + 1 instructions
	count      *loopCount // non-nil when the control instruction is a plain count
}

// loopCount describes a control instruction whose single compare `reg cmp
// imm` sends the loop round again exactly while reg != imm.
type loopCount struct {
	reg   int
	imm   uint64
	adj   uint64 // what the body's steps add to reg before the compare reads it
	conds uint8  // the condition bits a continuing pass leaves
	// perPass is every stepped register with its total delta over one pass;
	// step, dstep and sstep are those of reg and the two pointer registers.
	perPass            []regStep
	step, dstep, sstep uint64
}

// asStep lowers a `r = r ± imm` move. mvRegOpImm also covers `r = r' op
// imm`, which is no step.
func asStep(m *cmove) (regStep, bool) {
	if m.kind != mvRegOpImm || m.dst.reg != m.a.reg {
		return regStep{}, false
	}
	switch m.fn {
	case Add:
		return regStep{reg: m.dst.reg, delta: m.b.val}, true
	case Sub:
		return regStep{reg: m.dst.reg, delta: -m.b.val}, true
	}
	return regStep{}, false
}

func asSteps(moves []cmove) ([]regStep, bool) {
	var steps []regStep
	for i := range moves {
		st, ok := asStep(&moves[i])
		if !ok {
			return nil, false
		}
		steps = append(steps, st)
	}
	return steps, true
}

// lowerLoops attaches a kernel to every instruction that heads a loop of the
// lowered shape. One linear walk per candidate head; a program has few.
func (c *Compiled) lowerLoops() {
	var found []*loopKernel // tagged after the scan: loopAt reads body tags
	for pc := range c.ops {
		if k := c.loopAt(pc); k != nil {
			found = append(found, k)
		}
	}
	for _, k := range found {
		c.ops[k.head].tag = tLoopHead
		c.ops[k.head].loop = k
	}
	c.fused += len(found)
}

// loopAt returns the kernel of the loop headed by instruction h, or nil.
func (c *Compiled) loopAt(h int) *loopKernel {
	k := &loopKernel{head: h}
	pc := h
	for {
		op := &c.ops[pc]
		if op.tag != tMovesJump || len(op.moves) == 0 || op.moves[0].kind != mvPtrRMW32 {
			break // not a body instruction: pc must be the control instruction
		}
		if k.steps != nil || len(k.lanes) == len(c.ops) {
			return nil // a body instruction after the stepping one, or a cycle with no control
		}
		m := &op.moves[0]
		if len(k.lanes) == 0 {
			k.dreg, k.sreg = m.dst.reg, m.b.reg
		} else if m.dst.reg != k.dreg || m.b.reg != k.sreg {
			return nil
		}
		k.lanes = append(k.lanes, laneRMW{doff: uint64(m.dst.byteOff), soff: uint64(m.b.byteOff), fn: m.fn})
		if len(op.moves) > 1 {
			var ok bool
			if k.steps, ok = asSteps(op.moves[1:]); !ok {
				return nil
			}
		}
		pc = op.def.target
	}
	if len(k.lanes) == 0 {
		return nil
	}

	ctl := &c.ops[pc]
	if ctl.xtxn != nil {
		return nil
	}
	for i := range ctl.conds {
		if ctl.conds[i].kind != cdRegImm {
			return nil
		}
	}
	var ok bool
	if k.ctlSteps, ok = asSteps(ctl.moves); !ok {
		return nil
	}
	back := ctl.def.gotoes(h)
	for i := range ctl.cases {
		back = back || ctl.cases[i].gotoes(h)
	}
	if !back {
		return nil
	}
	k.ctl = pc
	k.passLen = uint64(len(k.lanes)) + 1
	k.addWidth = 4 * uint64(len(k.lanes))
	d0, s0 := k.lanes[0].doff, k.lanes[0].soff
	for j, ln := range k.lanes {
		if ln.fn != Add || ln.doff != d0+4*uint64(j) || ln.soff != s0+4*uint64(j) {
			k.addWidth = 0
		}
	}

	var dend, send uint64 // furthest byte any lane touches past each pointer
	for _, ln := range k.lanes {
		dend = max(dend, ln.doff+4)
		send = max(send, ln.soff+4)
	}
	if dend > LMemBytes || send > LMemBytes {
		return nil // some lane faults for every pointer value
	}
	k.dmax, k.smax = LMemBytes-dend, LMemBytes-send
	k.count = k.countOf(ctl)
	return k
}

// countOf recognises a control instruction that is a plain count.
func (k *loopKernel) countOf(ctl *cop) *loopCount {
	if len(ctl.conds) != 1 {
		return nil
	}
	// With one compare the condition bits are its bit or nothing.
	cd := &ctl.conds[0]
	backIfHolds, backIfNot := ctl.pick(cd.bit).gotoes(k.head), ctl.pick(0).gotoes(k.head)
	if !(cd.cmp == Ne && backIfHolds && !backIfNot) && !(cd.cmp == Eq && backIfNot && !backIfHolds) {
		return nil
	}
	n := &loopCount{reg: cd.a.reg, imm: cd.b.val}
	if backIfHolds {
		n.conds = cd.bit
	}
	for _, st := range k.steps {
		if st.reg == n.reg {
			n.adj += st.delta
		}
	}
	for _, st := range slices.Concat(k.steps, k.ctlSteps) {
		if i := n.stepOf(st.reg); i >= 0 {
			n.perPass[i].delta += st.delta
		} else {
			n.perPass = append(n.perPass, st)
		}
	}
	n.step, n.dstep, n.sstep = n.deltaOf(n.reg), n.deltaOf(k.dreg), n.deltaOf(k.sreg)
	return n
}

func (n *loopCount) stepOf(reg int) int {
	return slices.IndexFunc(n.perPass, func(st regStep) bool { return st.reg == reg })
}

// deltaOf is what one pass adds to reg.
func (n *loopCount) deltaOf(reg int) uint64 {
	if i := n.stepOf(reg); i >= 0 {
		return n.perPass[i].delta
	}
	return 0
}

// ahead returns a number of passes, back, that from the registers as they
// stand at the head provably all take the back edge, keep every lane inside
// local memory and fit in room instructions. It is a lower bound: 0 is always
// correct, and whatever it leaves goes through the per-pass loop. lanes is
// back, or back+1 when the pass after those also fits the budget and keeps
// its lanes inside local memory: that pass then runs whole in the per-pass
// loop, so its lanes may run in the same block as the others'.
func (n *loopCount) ahead(k *loopKernel, regs *[NumRegs]uint64, room uint64) (back, lanes uint64) {
	// The compares of successive passes read x, x+step, x+2*step, ... While
	// that sequence moves towards imm it cannot wrap around 2^64, and it stays
	// on its own side of imm — so differs from it — for ceil(distance/|step|)
	// passes.
	x := regs[n.reg] + n.adj
	switch down := int64(n.step) < 0; {
	case down && x > n.imm:
		back = (x-n.imm-1)/-n.step + 1
	case !down && n.step != 0 && x < n.imm:
		back = (n.imm-x-1)/n.step + 1
	default:
		return 0, 0
	}
	// One bound for back+1 passes. Should back+1 wrap, p is 0: still a lower
	// bound.
	p := min(back+1, room/k.passLen, span(regs[k.dreg], k.dmax, n.dstep), span(regs[k.sreg], k.smax, n.sstep))
	if p > back {
		return back, p
	}
	return p, p
}

// span counts how many of ptr, ptr+step, ptr+2*step, ... stay at or below
// max before the sequence first exceeds it or wraps around.
func span(ptr, max, step uint64) uint64 {
	switch {
	case ptr > max:
		return 0
	case step == 0:
		return math.MaxUint64
	case int64(step) < 0:
		return ptr/-step + 1
	}
	return (max-ptr)/step + 1
}

// rmwPasses runs the lanes of passes consecutive passes, the pointers moving
// by dstep and sstep between them. The caller has proven every lane inside
// local memory.
func (k *loopKernel) rmwPasses(lm *[LMemBytes]byte, pd, ps, dstep, sstep, passes uint64) {
	if w := k.addWidth; w != 0 && (passes == 1 || dstep == w && sstep == w) {
		d, s, n := pd+k.lanes[0].doff, ps+k.lanes[0].soff, w*passes
		if d == s || d+n <= s || s+n <= d {
			packet.AddLanes(lm[d:d+n], lm[s:s+n])
			return
		}
	}
	for ; passes > 0; passes-- {
		for _, ln := range k.lanes {
			d := lm[pd+ln.doff:][:4]
			v := alu(ln.fn, uint64(binary.BigEndian.Uint32(d)), uint64(binary.BigEndian.Uint32(lm[ps+ln.soff:])))
			binary.BigEndian.PutUint32(d, uint32(v))
		}
		pd += dstep
		ps += sstep
	}
}

// run retires whole passes of the loop, starting with the thread at the
// head, for as long as the next pass is provably what stepping would do:
// room instructions of budget cover it, and both pointer registers keep
// every lane inside local memory. It returns the instructions retired and
// the pc to continue at; 0 means the first pass was declined and the
// dispatcher must step.
//
// The pass that leaves the loop through a non-goto action (exit, call,
// return) retires only its body here, and the dispatcher executes the
// control instruction.
func (k *loopKernel) run(t *Thread, ops []cop, room uint64) (done uint64, pc int) {
	regs, ctl := &t.Regs, &ops[k.ctl]
	ran := false // the first per-pass iteration's lanes already ran in the block
	if n := k.count; n != nil {
		if back, lanes := n.ahead(k, regs, room); back > 0 {
			k.rmwPasses(&t.LMem, regs[k.dreg], regs[k.sreg], n.dstep, n.sstep, lanes)
			for _, st := range n.perPass {
				regs[st.reg] += st.delta * back
			}
			t.conds = n.conds
			done = back * k.passLen
			ran = lanes > back
		}
	}
	pc = k.head
	for pc == k.head && room-done >= k.passLen {
		// Pointer registers only move in the steps, after the last lane, so
		// this one check bounds every lane of the pass.
		pd, ps := regs[k.dreg], regs[k.sreg]
		if pd > k.dmax || ps > k.smax {
			break
		}
		if !ran {
			k.rmwPasses(&t.LMem, pd, ps, 0, 0, 1)
		}
		ran = false
		for _, st := range k.steps {
			regs[st.reg] += st.delta
		}

		// The control instruction: compares read the state the body left.
		var bits uint8
		for i := range ctl.conds {
			if cd := &ctl.conds[i]; compare(cd.cmp, regs[cd.a.reg], cd.b.val) {
				bits |= cd.bit
			}
		}
		act := ctl.pick(bits)
		if act.kind != ActGoto {
			done += k.passLen - 1
			pc = k.ctl
			break
		}
		t.conds = bits
		for _, st := range k.ctlSteps {
			regs[st.reg] += st.delta
		}
		done += k.passLen
		pc = act.target
	}
	t.Stats.Instructions += done
	t.Now += sim.Time(done) * InstrTime
	return done, pc
}
