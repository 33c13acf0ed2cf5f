package microcode

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble compiles Microcode source into a linked Program. The surface
// language mirrors the §3.2 listings; see testdata/filter.mc (the §3.2
// filter) and pfe's MicrocodeApp example for a complete program. Like the Trio Compiler, it
// requires the complete source (no separate linking) and fails compilation
// when the code designated to one instruction does not fit the instruction's
// resources.
func Assemble(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, name: "main",
		consts:   map[string]uint64{},
		structs:  map[string]map[string]fieldSpec{},
		layouts:  map[string]layoutBind{},
		regAlias: map[string]int{},
	}
	if err := p.file(); err != nil {
		return nil, err
	}
	return NewProgram(p.name, p.instrs)
}

// MustAssemble is Assemble panicking on error, for static programs.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

type fieldSpec struct {
	off, width uint // bit offset relative to struct start
}

type layoutBind struct {
	strct   string
	byteOff uint
}

// Scratch registers the code generator may use for expression temporaries.
// They are architecturally ordinary registers; reserving the top two keeps
// generated code from clobbering program state.
var scratchRegs = []int{30, 29}

type parser struct {
	toks []token
	pos  int

	name     string
	consts   map[string]uint64
	structs  map[string]map[string]fieldSpec
	layouts  map[string]layoutBind
	regAlias map[string]int
	instrs   []Instruction
}

// cur clamps to the trailing tokEOF so error paths that consume it (e.g. a
// truncated expression inside an if) cannot index past the token stream.
func (p *parser) cur() token {
	if p.pos >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.cur()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) accept(text string) bool {
	if p.cur().kind != tokEOF && p.cur().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, found %s", text, p.cur())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().kind != tokIdent {
		return "", p.errf("expected identifier, found %s", p.cur())
	}
	return p.next().text, nil
}

var reservedWords = map[string]bool{
	"define": true, "struct": true, "layout": true, "reg": true, "program": true,
	"begin": true, "end": true, "if": true, "goto": true, "call": true,
	"return": true, "exit": true, "hit": true, "async": true,
}

// file parses the whole translation unit.
func (p *parser) file() error {
	for p.cur().kind != tokEOF {
		switch p.cur().text {
		case "define":
			if err := p.define(); err != nil {
				return err
			}
		case "struct":
			if err := p.structDecl(); err != nil {
				return err
			}
		case "layout":
			if err := p.layoutDecl(); err != nil {
				return err
			}
		case "reg":
			if err := p.regDecl(); err != nil {
				return err
			}
		case "program":
			p.next()
			n, err := p.expectIdent()
			if err != nil {
				return err
			}
			p.name = n
			if err := p.expect(";"); err != nil {
				return err
			}
		default:
			if err := p.instruction(); err != nil {
				return err
			}
		}
	}
	if len(p.instrs) == 0 {
		return fmt.Errorf("microcode: program contains no instructions")
	}
	return nil
}

func (p *parser) define() error {
	p.next() // define
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expect("="); err != nil {
		return err
	}
	e, err := p.expr()
	if err != nil {
		return err
	}
	if !e.isImm() {
		return p.errf("define %s: value must be constant", name)
	}
	p.consts[name] = e.op.Val
	return p.expect(";")
}

func (p *parser) structDecl() error {
	p.next() // struct
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	fields := map[string]fieldSpec{}
	var off uint
	for !p.accept("}") {
		fname := ""
		if p.cur().kind == tokIdent {
			fname = p.next().text
		}
		if err := p.expect(":"); err != nil {
			return err
		}
		if p.cur().kind != tokNumber {
			return p.errf("expected field width")
		}
		w := uint(p.next().num)
		if w == 0 || w > 64 {
			return p.errf("field %s width %d out of range", fname, w)
		}
		if fname != "" {
			if _, dup := fields[fname]; dup {
				return p.errf("duplicate field %s", fname)
			}
			fields[fname] = fieldSpec{off: off, width: w}
		}
		off += w
		if err := p.expect(";"); err != nil {
			return err
		}
	}
	p.structs[name] = fields
	return p.expect(";")
}

func (p *parser) layoutDecl() error {
	p.next() // layout
	inst, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	strct, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, ok := p.structs[strct]; !ok {
		return p.errf("unknown struct %s", strct)
	}
	if err := p.expect("@"); err != nil {
		return err
	}
	e, err := p.expr()
	if err != nil {
		return err
	}
	if !e.isImm() {
		return p.errf("layout offset must be constant")
	}
	p.layouts[inst] = layoutBind{strct: strct, byteOff: uint(e.op.Val)}
	return p.expect(";")
}

func (p *parser) regDecl() error {
	p.next() // reg
	alias, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expect("="); err != nil {
		return err
	}
	rn, err := p.expectIdent()
	if err != nil {
		return err
	}
	idx, ok := parseRegName(rn)
	if !ok {
		return p.errf("%s is not a register name (r0..r%d)", rn, NumRegs-1)
	}
	p.regAlias[alias] = idx
	return p.expect(";")
}

func parseRegName(s string) (int, bool) {
	if len(s) < 2 || s[0] != 'r' {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, false
	}
	return n, true
}

// ---- expressions ----

// expr is a small AST that the generator folds and lowers to Move ALUs.
type exprNode struct {
	op   Operand // leaf when a == nil
	fn   ALUFn
	a, b *exprNode
}

func (e *exprNode) isImm() bool { return e.a == nil && e.op.Kind == Imm }

func (p *parser) expr() (*exprNode, error) { return p.binary(1) }

var precedence = map[string]int{
	"|": 1, "^": 2, "&": 3,
	"<<": 4, ">>": 4,
	"+": 5, "-": 5,
	"*": 6,
}

var binopFn = map[string]ALUFn{
	"|": Or, "^": Xor, "&": And, "<<": Shl, ">>": Shr, "+": Add, "-": Sub, "*": Mul,
}

func (p *parser) binary(minPrec int) (*exprNode, error) {
	lhs, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		opText := p.cur().text
		prec, ok := precedence[opText]
		if p.cur().kind != tokPunct || !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		fn := binopFn[opText]
		if lhs.isImm() && rhs.isImm() {
			lhs = &exprNode{op: Imm64(alu(fn, lhs.op.Val, rhs.op.Val))}
			continue
		}
		lhs = &exprNode{fn: fn, a: lhs, b: rhs}
	}
}

func (p *parser) primary() (*exprNode, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		return &exprNode{op: Imm64(t.num)}, nil
	case t.text == "(":
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(")")
	case t.kind == tokIdent:
		return p.identExpr()
	}
	return nil, p.errf("expected expression, found %s", t)
}

func (p *parser) identExpr() (*exprNode, error) {
	name, _ := p.expectIdent()
	if v, ok := p.consts[name]; ok {
		return &exprNode{op: Imm64(v)}, nil
	}
	if strings.HasPrefix(name, "lmem") {
		return p.lmemExpr(name)
	}
	op, err := p.operandForIdent(name)
	if err != nil {
		return nil, err
	}
	return &exprNode{op: op}, nil
}

// operandForIdent resolves an identifier (possibly dotted) to an operand.
func (p *parser) operandForIdent(name string) (Operand, error) {
	if name == "rr" {
		return R(XTXNReplyReg), nil
	}
	if idx, ok := p.regAlias[name]; ok {
		return R(idx), nil
	}
	if idx, ok := parseRegName(name); ok {
		return R(idx), nil
	}
	if bind, ok := p.layouts[name]; ok {
		if err := p.expect("."); err != nil {
			return Operand{}, err
		}
		fname, err := p.expectIdent()
		if err != nil {
			return Operand{}, err
		}
		f, ok := p.structs[bind.strct][fname]
		if !ok {
			return Operand{}, p.errf("struct %s has no field %s", bind.strct, fname)
		}
		return L(bind.byteOff*8+f.off, f.width), nil
	}
	if reservedWords[name] {
		return Operand{}, p.errf("unexpected keyword %q in expression", name)
	}
	return Operand{}, p.errf("undefined identifier %q", name)
}

// lmemExpr parses lmemN[index] for N in {8,16,32,64}. The index (a byte
// offset) may be a constant, a pointer register, or `reg + constant` —
// mirroring the hardware's immediate and pointer-register addressing modes.
func (p *parser) lmemExpr(name string) (*exprNode, error) {
	bits, err := strconv.Atoi(strings.TrimPrefix(name, "lmem"))
	if err != nil || (bits != 8 && bits != 16 && bits != 32 && bits != 64) {
		return nil, p.errf("unknown identifier %q (lmem8/16/32/64 expected)", name)
	}
	if err := p.expect("["); err != nil {
		return nil, err
	}
	off, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect("]"); err != nil {
		return nil, err
	}
	width := uint(bits)
	switch {
	case off.isImm():
		return &exprNode{op: L(uint(off.op.Val)*8, width)}, nil
	case off.a == nil && off.op.Kind == Reg && off.op.Width == 0:
		return &exprNode{op: LPtr(off.op.Reg, 0, width)}, nil
	case off.a != nil && off.fn == Add && off.a.a == nil && off.b.a == nil &&
		off.a.op.Kind == Reg && off.a.op.Width == 0 && off.b.op.Kind == Imm:
		return &exprNode{op: LPtr(off.a.op.Reg, int(off.b.op.Val), width)}, nil
	case off.a != nil && off.fn == Add && off.a.a == nil && off.b.a == nil &&
		off.b.op.Kind == Reg && off.b.op.Width == 0 && off.a.op.Kind == Imm:
		return &exprNode{op: LPtr(off.b.op.Reg, int(off.a.op.Val), width)}, nil
	default:
		return nil, p.errf("lmem index must be a constant, a pointer register, or reg + constant")
	}
}

// ---- instructions ----

// ibuild accumulates one instruction's parts during parsing.
type ibuild struct {
	in          Instruction
	nextCond    int
	nextScratch int
	defaultSet  bool
}

func (p *parser) instruction() error {
	label, err := p.expectIdent()
	if err != nil {
		return err
	}
	if reservedWords[label] {
		return p.errf("expected instruction label, found keyword %q", label)
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	if err := p.expect("begin"); err != nil {
		return err
	}
	b := &ibuild{in: Instruction{Label: label, Br: Branch{Default: Action{Kind: ActFallthrough}}}}
	for !p.accept("end") {
		if p.cur().kind == tokEOF {
			return p.errf("unexpected end of input inside instruction %q", label)
		}
		if err := p.statement(b); err != nil {
			return err
		}
	}
	p.instrs = append(p.instrs, b.in)
	return nil
}

func (p *parser) statement(b *ibuild) error {
	t := p.cur()
	switch t.text {
	case "if":
		return p.ifStmt(b)
	case "goto", "call", "return", "exit":
		act, err := p.controlAction()
		if err != nil {
			return err
		}
		if b.defaultSet {
			return p.errf("unreachable control statement (default path already set)")
		}
		b.in.Br.Default = act
		b.defaultSet = true
		return nil
	case "async":
		p.next()
		return p.intrinsic(b, true)
	}
	if t.kind == tokIdent && isIntrinsic(t.text) {
		return p.intrinsic(b, false)
	}
	return p.assignment(b)
}

func (p *parser) controlAction() (Action, error) {
	kw := p.next().text
	switch kw {
	case "goto", "call":
		target, err := p.expectIdent()
		if err != nil {
			return Action{}, err
		}
		kind := ActGoto
		if kw == "call" {
			kind = ActCall
		}
		return Action{Kind: kind, Target: target}, p.expect(";")
	case "return":
		return Action{Kind: ActReturn}, p.expect(";")
	case "exit":
		if err := p.expect("("); err != nil {
			return Action{}, err
		}
		vName, err := p.expectIdent()
		if err != nil {
			return Action{}, err
		}
		var v Verdict
		switch vName {
		case "forward":
			v = VerdictForward
		case "drop":
			v = VerdictDrop
		case "consume":
			v = VerdictConsume
		default:
			return Action{}, p.errf("unknown verdict %q", vName)
		}
		if err := p.expect(")"); err != nil {
			return Action{}, err
		}
		return Action{Kind: ActExit, Verdict: v}, p.expect(";")
	}
	return Action{}, p.errf("expected control statement")
}

func (p *parser) ifStmt(b *ibuild) error {
	p.next() // if
	if err := p.expect("("); err != nil {
		return err
	}
	var mask, want uint8
	for {
		negate := p.accept("!")
		if p.cur().text == "hit" && p.cur().kind == tokIdent {
			p.next()
			mask |= 1 << XTXNHitCond
			if !negate {
				want |= 1 << XTXNHitCond
			}
		} else {
			lhs, err := p.expr()
			if err != nil {
				return err
			}
			cmpText := p.next().text
			var cmp CmpFn
			switch cmpText {
			case "==":
				cmp = Eq
			case "!=":
				cmp = Ne
			case "<":
				cmp = Lt
			case "<=":
				cmp = Le
			case ">":
				cmp = Gt
			case ">=":
				cmp = Ge
			default:
				return p.errf("expected comparison operator, found %q", cmpText)
			}
			rhs, err := p.expr()
			if err != nil {
				return err
			}
			if negate {
				cmp = [...]CmpFn{Ne, Eq, Ge, Gt, Le, Lt}[cmp]
			}
			// Condition ALUs read pre-instruction state and execute before
			// the Move ALUs, so a comparison operand computed by a Move in
			// the same instruction would observe stale data. Like TC, fail
			// the compilation instead of silently reordering.
			if lhs.a != nil || rhs.a != nil {
				return p.errf("comparison operands must be registers, fields, or constants; compute compound expressions into a register in a previous instruction")
			}
			la, ra := lhs.op, rhs.op
			if b.nextCond == XTXNHitCond {
				return p.errf("too many conditions in one instruction (bit %d is the XTXN hit flag)", XTXNHitCond)
			}
			idx := b.nextCond
			b.nextCond++
			b.in.Conds = append(b.in.Conds, CondOp{A: la, B: ra, Cmp: cmp, Idx: idx})
			mask |= 1 << idx
			want |= 1 << idx
		}
		if !p.accept("&&") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	act, err := p.controlAction()
	if err != nil {
		return err
	}
	if err := p.expect("}"); err != nil {
		return err
	}
	b.in.Br.Cases = append(b.in.Br.Cases, BranchCase{Mask: mask, Want: want, Act: act})
	return nil
}

// lowerOperand reduces an expression to a single operand, emitting Move ALU
// ops into scratch registers for compound sub-expressions.
func (p *parser) lowerOperand(b *ibuild, e *exprNode) (Operand, error) {
	if e.a == nil {
		return e.op, nil
	}
	if b.nextScratch >= len(scratchRegs) {
		return Operand{}, p.errf("expression too complex for one instruction (out of scratch registers); split the instruction")
	}
	scratch := R(scratchRegs[b.nextScratch])
	b.nextScratch++
	if err := p.lowerInto(b, scratch, e); err != nil {
		return Operand{}, err
	}
	return scratch, nil
}

// lowerInto emits Move ALU ops computing e into dst.
func (p *parser) lowerInto(b *ibuild, dst Operand, e *exprNode) error {
	if e.a == nil {
		b.in.Moves = append(b.in.Moves, MoveOp{Dst: dst, A: e.op, Fn: Pass})
		return nil
	}
	la, err := p.lowerOperand(b, e.a)
	if err != nil {
		return err
	}
	ra, err := p.lowerOperand(b, e.b)
	if err != nil {
		return err
	}
	b.in.Moves = append(b.in.Moves, MoveOp{Dst: dst, A: la, B: ra, Fn: e.fn})
	return nil
}

func (p *parser) assignment(b *ibuild) error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	var dst Operand
	if strings.HasPrefix(name, "lmem") {
		e, err := p.lmemExpr(name)
		if err != nil {
			return err
		}
		dst = e.op
	} else {
		dst, err = p.operandForIdent(name)
		if err != nil {
			return err
		}
	}
	if err := p.expect("="); err != nil {
		return err
	}
	e, err := p.expr()
	if err != nil {
		return err
	}
	if err := p.lowerInto(b, dst, e); err != nil {
		return err
	}
	return p.expect(";")
}

var intrinsics = map[string]XTXNKind{
	"counter_inc": XTXNCounterInc,
	"mem_read":    XTXNMemRead,
	"mem_write":   XTXNMemWrite,
	"tail_read":   XTXNReadTail,
	"tail_write":  XTXNWriteTail,
	"hash_lookup": XTXNHashLookup,
	"hash_insert": XTXNHashInsert,
	"hash_delete": XTXNHashDelete,
}

func isIntrinsic(name string) bool { _, ok := intrinsics[name]; return ok }

// intrinsic parses an XTXN call. Forms:
//
//	counter_inc(addr, len);
//	mem_read(addr, size, lmem_byte_off);    mem_write(addr, size, lmem_byte_off);
//	tail_read(tail_off, size, lmem_byte_off);
//	hash_lookup(key);  hash_insert(key, val);  hash_delete(key);
func (p *parser) intrinsic(b *ibuild, async bool) error {
	name, _ := p.expectIdent()
	kind := intrinsics[name]
	if err := p.expect("("); err != nil {
		return err
	}
	args, err := p.argList(b)
	if err != nil {
		return err
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	x := XTXN{Kind: kind, Async: async}
	need := map[XTXNKind]int{
		XTXNCounterInc: 2, XTXNMemRead: 3, XTXNMemWrite: 3, XTXNReadTail: 3, XTXNWriteTail: 3,
		XTXNHashLookup: 1, XTXNHashInsert: 2, XTXNHashDelete: 1,
	}[kind]
	if len(args) != need {
		return p.errf("%s takes %d arguments, got %d", name, need, len(args))
	}
	x.Addr = args[0].op
	switch kind {
	case XTXNCounterInc, XTXNHashInsert:
		x.Len = args[1].op
	case XTXNMemRead, XTXNMemWrite, XTXNReadTail, XTXNWriteTail:
		if !args[1].imm || !args[2].imm {
			return p.errf("%s size and lmem offset must be constants", name)
		}
		x.Size = int(args[1].op.Val)
		x.LMemOff = uint(args[2].op.Val)
	}
	b.in.XTXNs = append(b.in.XTXNs, x)
	return nil
}

type loweredArg struct {
	op  Operand
	imm bool
}

func (p *parser) argList(b *ibuild) ([]loweredArg, error) {
	var args []loweredArg
	if p.accept(")") {
		return args, nil
	}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		op, err := p.lowerOperand(b, e)
		if err != nil {
			return nil, err
		}
		args = append(args, loweredArg{op: op, imm: e.isImm()})
		if p.accept(")") {
			return args, nil
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
	}
}
