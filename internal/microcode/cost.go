package microcode

import (
	"fmt"
	"strings"
)

// CostModel is the static summary of one compiled program: its length,
// fused operations, and XTXN and branch sites, as mcasm prints them. The
// per-packet dynamic cost depends on which paths and loops a packet takes,
// so applications read it off Thread.Stats of their program run through
// RunPackets instead (trioml.MCAggConfig.Cost, netrpc.Config.Cost, infnet.Config.Cost),
// and the dse layer prunes on that.
type CostModel struct {
	// StaticInstructions is the lowered instruction count (1:1 with source).
	StaticInstructions int
	// FusedOps counts operations lowered into superinstruction forms.
	FusedOps int
	// XTXNSites / SyncXTXNSites count external-transaction issue sites; each
	// synchronous site stalls the thread for the reply (RMW contention grows
	// with the synchronous share).
	XTXNSites     int
	SyncXTXNSites int
	// BranchSites counts multi-way (conditional) branch instructions.
	BranchSites int
}

// Cost computes the static cost model of the compiled program.
func (c *Compiled) Cost() CostModel {
	m := CostModel{StaticInstructions: len(c.ops), FusedOps: c.fused}
	for i := range c.ops {
		op := &c.ops[i]
		if op.xtxn != nil {
			m.XTXNSites++
			if !op.xtxn.Async {
				m.SyncXTXNSites++
			}
		}
		if len(op.cases) > 0 {
			m.BranchSites++
		}
	}
	return m
}

func (a *acc) String() string {
	switch a.kind {
	case accImm:
		if a.val > 9 {
			return fmt.Sprintf("%#x", a.val)
		}
		return fmt.Sprintf("%d", a.val)
	case accReg:
		return fmt.Sprintf("r%d", a.reg)
	case accRegField:
		return fmt.Sprintf("r%d[%d:%d]", a.reg, a.off, a.off+a.width)
	case accLMemBytes:
		return fmt.Sprintf("lmem%d[%d]", a.width, a.byteOff)
	case accLMemBits:
		return fmt.Sprintf("lmem.%d[bit %d]", a.width, a.off)
	case accPtrBytes:
		if a.byteOff != 0 {
			return fmt.Sprintf("lmem%d[r%d+%d]", a.width, a.reg, a.byteOff)
		}
		return fmt.Sprintf("lmem%d[r%d]", a.width, a.reg)
	case accPtrBits:
		if a.byteOff != 0 {
			return fmt.Sprintf("lmem.%d[r%d+%d]", a.width, a.reg, a.byteOff)
		}
		return fmt.Sprintf("lmem.%d[r%d]", a.width, a.reg)
	}
	return "?"
}

func tagName(tag uint8) string {
	switch tag {
	case tMovesJump:
		return "moves+jump"
	case tMovesBranch:
		return "moves+branch"
	case tLoopHead:
		return "loop head"
	}
	return "generic"
}

func mvName(k mvKind) string {
	switch k {
	case mvRegOpImm:
		return " ; fused reg-op-imm"
	case mvImm:
		return " ; fused imm"
	case mvRegLMem64:
		return " ; fused reg-lmem64"
	case mvCopy64:
		return " ; fused copy64"
	case mvPtrRMW32:
		return " ; fused rmw32"
	}
	return ""
}

func (c *Compiled) caseString(cs *ccase) string {
	switch cs.kind {
	case ActGoto:
		return fmt.Sprintf("goto %d (%s)", cs.target, c.ops[cs.target].label)
	case ActCall:
		return fmt.Sprintf("call %d (%s)", cs.target, c.ops[cs.target].label)
	case ActReturn:
		return "return"
	case ActExit:
		return fmt.Sprintf("exit(%v)", cs.verdict)
	}
	return "?"
}

// DumpCompiled renders the post-fusion listing with resolved pcs — what
// `mcasm -dump-compiled` prints. Every branch target is an instruction
// index; fused operations and lowered loops are annotated.
func (c *Compiled) DumpCompiled() string {
	var b strings.Builder
	cost := c.Cost()
	loops := 0
	for pc := range c.ops {
		if c.ops[pc].loop != nil {
			loops++
		}
	}
	fmt.Fprintf(&b, "compiled %q: %d instructions, %d superinstructions fused (loop kernels: %d), %d xtxn sites (%d sync)\n",
		c.Name, cost.StaticInstructions, cost.FusedOps, loops, cost.XTXNSites, cost.SyncXTXNSites)
	for pc := range c.ops {
		op := &c.ops[pc]
		fmt.Fprintf(&b, "%4d %-14s [%s]\n", pc, op.label+":", tagName(op.tag))
		if k := op.loop; k != nil {
			fmt.Fprintf(&b, "       loop kernel: head %d (%s) .. end %d (%s), %d lanes, %d instructions per pass\n",
				k.head, op.label, k.ctl, c.ops[k.ctl].label, len(k.lanes), k.passLen)
		}
		for i := range op.conds {
			cd := &op.conds[i]
			note := ""
			if cd.kind == cdRegImm {
				note = " ; fused reg-imm"
			}
			fmt.Fprintf(&b, "       cond c%d = %s %v %s%s\n", bitIndex(cd.bit), cd.a.String(), cd.cmp, cd.b.String(), note)
		}
		for i := range op.moves {
			mv := &op.moves[i]
			if mv.fn == Pass {
				fmt.Fprintf(&b, "       move %s = %s%s\n", mv.dst.String(), mv.a.String(), mvName(mv.kind))
			} else {
				fmt.Fprintf(&b, "       move %s = %v(%s, %s)%s\n", mv.dst.String(), mv.fn, mv.a.String(), mv.b.String(), mvName(mv.kind))
			}
		}
		if op.xtxn != nil {
			fmt.Fprintf(&b, "       xtxn %s\n", op.xtxn.String())
		}
		for i := range op.cases {
			cs := &op.cases[i]
			fmt.Fprintf(&b, "       if (conds&%#02x == %#02x) %s\n", cs.mask, cs.want, c.caseString(cs))
		}
		fmt.Fprintf(&b, "       %s\n", c.caseString(&op.def))
	}
	return b.String()
}

func bitIndex(bit uint8) int {
	for i := 0; i < 8; i++ {
		if bit == 1<<i {
			return i
		}
	}
	return -1
}
