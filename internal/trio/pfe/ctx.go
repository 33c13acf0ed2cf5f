package pfe

import (
	"fmt"
	"slices"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/smem"
)

// Ctx is the execution context of a PPE thread: the packet head in local
// memory, access to the tail via XTXNs, the shared memory and hash engine
// over the crossbar, and explicit compute accounting. Native applications
// call ChargeInstr for the instruction work their Microcode equivalent would
// execute, at the Microcode engines' microcode.InstrTime.
//
// A PFE has one Ctx, reset for every thread: a thread runs to completion
// inside Process, so no two threads ever hold it at once. The thread's
// Packet record and head copy live in it; what the thread's completion event
// needs (verdict, frame, emits) is copied out when Process returns, so
// neither the Ctx nor its Packet and Head may be retained.
type Ctx struct {
	pfe     *PFE
	running bool // a thread is inside the context (the re-entrancy guard)

	threadState // zeroed whole for every thread

	emits []emit // the running thread's; handed to its completion record

	txnDone []sim.Time // per-XTXN completions of a vector run, for trace spans

	headArr [HeadBytes]byte // the thread's head; head aliases it
}

// threadState is what one thread run leaves behind in the context.
type threadState struct {
	now    sim.Time
	pkt    *Packet // nil for timer threads, else &pktBuf
	pktBuf Packet
	head   []byte // the thread's copy of the packet head (mutable)
	tail   []byte // view of the tail held in the Packet Buffer

	verdict    Verdict
	egressPort int
	stats      microcode.Stats
	tslot      int64 // trace track (busy-slot index) assigned at dispatch
}

// emit is one packet a thread created: a unicast to port (ports nil), or
// one frame multicast to every port of ports.
type emit struct {
	ports []int
	port  int
	frame []byte
}

// Now reports the thread's current virtual time.
func (c *Ctx) Now() sim.Time { return c.now }

// Stats reports the thread's activity counters so far.
func (c *Ctx) Stats() microcode.Stats { return c.stats }

// Packet returns the packet being processed (nil in timer threads). The
// record belongs to the PFE's context and is reused by the next thread: read
// it inside Process, do not retain it.
func (c *Ctx) Packet() *Packet { return c.pkt }

// Head returns the mutable packet head in the thread's local memory.
func (c *Ctx) Head() []byte { return c.head }

// FrameLen reports the full packet length (head + tail).
func (c *Ctx) FrameLen() int { return len(c.head) + len(c.tail) }

// TailLen reports the number of tail bytes held in the Packet Buffer.
func (c *Ctx) TailLen() int { return len(c.tail) }

// ChargeInstr accounts for n micro-instructions of thread compute, at the
// microcode engines' one instruction time.
func (c *Ctx) ChargeInstr(n int) {
	c.stats.Instructions += uint64(n)
	c.now += sim.Time(n) * microcode.InstrTime
}

// wait models a synchronous XTXN: the thread suspends until done.
func (c *Ctx) wait(done sim.Time) {
	if done > c.now {
		c.stats.SyncStall += done - c.now
		c.now = done
	}
}

// span records one XTXN interval on the thread's trace track. The nil-trace
// default costs a single predictable branch, keeping the traced-off data
// path identical to before instrumentation.
func (c *Ctx) span(cat, name string, start, done sim.Time) {
	if tr := c.pfe.trace; tr != nil {
		tr.Complete(cat, name, int64(c.pfe.Cfg.ID), c.tslot, int64(start), int64(done-start))
	}
}

// ReadTail fetches size bytes of the packet tail starting at off into the
// thread (one XTXN through the crossbar to the Memory and Queueing
// Subsystem, §3.1). Short reads at the end of the tail return what remains.
func (c *Ctx) ReadTail(off, size int) []byte {
	c.stats.XTXNs++
	done := c.now + microcode.TailLatency
	c.span("pbuf", "tail_read", c.now, done)
	c.wait(done)
	return microcode.ClipTail(c.tail, off, size)
}

// MemReadInto issues a synchronous shared-memory read XTXN of len(b) bytes
// into caller-owned storage.
func (c *Ctx) MemReadInto(addr uint64, b []byte) {
	c.stats.XTXNs++
	start := c.now
	done := c.pfe.Mem.ReadInto(c.now, addr, b)
	c.span("rmw", "read", start, done)
	c.wait(done)
}

// MemWrite issues a shared-memory write XTXN. Async writes do not suspend
// the thread.
func (c *Ctx) MemWrite(addr uint64, data []byte, async bool) {
	c.stats.XTXNs++
	start := c.now
	done := c.pfe.Mem.Write(c.now, addr, data)
	c.span("rmw", "write", start, done)
	if !async {
		c.wait(done)
	}
}

// AddVector32BE offloads gradient summation to the RMW engines (§6.3): the
// engines add the big-endian wire lanes near memory, one vector-add XTXN per
// 64 bytes of lanes, XTXN i issued at at[i] — the thread's clock when its
// loop had that chunk. The adds are asynchronous, so a thread whose loop
// touches shared memory in no other way hands its whole gradient run over
// in one call once the loop is done: the engines book each XTXN at its own
// time, as one call per XTXN would.
func (c *Ctx) AddVector32BE(at []sim.Time, addr uint64, lanes []byte) {
	done := c.txns(len(lanes))
	c.pfe.Mem.AddVector32BEAt(at, addr, lanes, done)
	c.spans("add_vector", at, done)
}

// MemWriteAt is AddVector32BE's write: data overwrites shared memory in
// asynchronous 64-byte write XTXNs, XTXN i issued at at[i], the last one
// zero-padded to the 8-byte grain (a block's first source initializing the
// aggregation buffer).
func (c *Ctx) MemWriteAt(at []sim.Time, addr uint64, data []byte) {
	done := c.txns(len(data))
	c.pfe.Mem.WriteAt(at, addr, data, done)
	c.spans("write", at, done)
}

// txns counts the XTXNs of an n-byte run, one per 64 bytes, and returns
// storage for their completion times when a trace is attached (nil
// otherwise: the untraced run asks the engines for nothing more).
func (c *Ctx) txns(n int) []sim.Time {
	k := (n + smem.MaxTxnBytes - 1) / smem.MaxTxnBytes
	c.stats.XTXNs += uint64(k)
	if c.pfe.trace == nil {
		return nil
	}
	c.txnDone = slices.Grow(c.txnDone[:0], k)[:k]
	return c.txnDone
}

// spans records one rmw span per XTXN of a run, from its issue time to the
// completion the engines reported.
func (c *Ctx) spans(name string, at, done []sim.Time) {
	for i, d := range done {
		c.span("rmw", name, at[i], d)
	}
}

// ReadVector32BE synchronously reads len(dst)/4 32-bit words from shared
// memory into dst as big-endian lanes.
func (c *Ctx) ReadVector32BE(addr uint64, dst []byte) {
	c.stats.XTXNs++
	start := c.now
	done := c.pfe.Mem.ReadVector32BE(c.now, addr, dst)
	c.span("rmw", "read_vector", start, done)
	c.wait(done)
}

// CounterInc issues an asynchronous CounterIncPhys XTXN.
func (c *Ctx) CounterInc(addr uint64, pktLen uint32) {
	c.stats.XTXNs++
	done := c.pfe.Mem.CounterInc(c.now, addr, pktLen)
	c.span("rmw", "counter_inc", c.now, done)
}

// HashLookup issues a synchronous hash-engine lookup (sets the record's REF
// flag on hit).
func (c *Ctx) HashLookup(key uint64) (uint64, bool) {
	c.stats.XTXNs++
	start := c.now
	v, ok, done := c.pfe.Hash.Lookup(c.now, key)
	c.span("hash", "lookup", start, done)
	c.wait(done)
	return v, ok
}

// HashInsert issues a synchronous hash-engine insert.
func (c *Ctx) HashInsert(key, val uint64) bool {
	c.stats.XTXNs++
	start := c.now
	ok, done := c.pfe.Hash.Insert(c.now, key, val)
	c.span("hash", "insert", start, done)
	c.wait(done)
	return ok
}

// HashClearRef issues a synchronous hash-engine REF clear, undoing the
// reference a prior lookup took (a contribution not added; see
// hasheng.ClearRef).
func (c *Ctx) HashClearRef(key uint64) bool {
	c.stats.XTXNs++
	start := c.now
	ok, done := c.pfe.Hash.ClearRef(c.now, key)
	c.span("hash", "clear_ref", start, done)
	c.wait(done)
	return ok
}

// HashDelete issues a synchronous hash-engine delete.
func (c *Ctx) HashDelete(key uint64) bool {
	c.stats.XTXNs++
	start := c.now
	ok, done := c.pfe.Hash.Delete(c.now, key)
	c.span("hash", "delete", start, done)
	c.wait(done)
	return ok
}

// ScanHashPartition sweeps partition part of nParts of the hash table,
// charging the thread for the scan work (used by timer threads, §5).
func (c *Ctx) ScanHashPartition(part, nParts int, visit func(key, val uint64, ref bool) hasheng.ScanAction) int {
	c.stats.XTXNs++
	start := c.now
	n, done := c.pfe.Hash.ScanPartition(c.now, part, nParts, visit)
	c.span("hash", "scan", start, done)
	c.wait(done)
	return n
}

// Forward sets the thread's verdict to forward the packet out port.
func (c *Ctx) Forward(port int) {
	c.verdict = VerdictForward
	c.egressPort = port
}

// Drop sets the thread's verdict to drop the packet.
func (c *Ctx) Drop() { c.verdict = VerdictDrop }

// Consume absorbs the packet into shared state: nothing egresses, but the
// packet is not an error drop.
func (c *Ctx) Consume() { c.verdict = VerdictConsume }

// Emit creates a new packet (e.g. a per-waiter reply) and queues it for
// egress on port. The frame is built in the Packet Buffer; the paper builds
// result tails in 256-byte chunks, which callers account for explicitly via
// ChargeInstr/MemReadInto. An invalid port panics here, inside the thread.
func (c *Ctx) Emit(port int, frame []byte) {
	c.checkPort(port)
	c.emits = append(c.emits, emit{port: port, frame: frame})
}

// Multicast queues one frame for egress on every port of ports, in list
// order: the replication the MQSS does for a result packet (§2.3, Fig. 7),
// so the thread's emit list, its completion record and egress each hold one
// entry for it, however many ports it reaches. Every copy departs and is
// counted as if Emit had queued it per port. ports is held, not copied,
// until the last copy is delivered, so the caller must not change it: pass
// a list installed once, such as a job's result ports. An invalid port
// anywhere in the list panics here, naming the port; an empty list sends
// nothing.
func (c *Ctx) Multicast(ports []int, frame []byte) {
	if len(ports) == 0 {
		return
	}
	for _, port := range ports {
		c.checkPort(port)
	}
	c.emits = append(c.emits, emit{ports: ports, frame: frame})
}

// checkPort panics unless port is one of the PFE's ports.
func (c *Ctx) checkPort(port int) {
	if port < 0 || port >= c.pfe.Cfg.NumPorts {
		panic(fmt.Sprintf("pfe%d: emit on invalid port %d", c.pfe.Cfg.ID, port))
	}
}

// FullFrame reassembles head+tail as the egress path would (a Packet Buffer
// DMA, not a per-byte thread copy, so no XTXN time is charged). Use it when
// replicating a packet to multiple ports.
func (c *Ctx) FullFrame() []byte { return c.rebuildFrame() }

// rebuildFrame reassembles head+tail after processing for forwarding.
func (c *Ctx) rebuildFrame() []byte {
	frame := make([]byte, 0, len(c.head)+len(c.tail))
	frame = append(frame, c.head...)
	return append(frame, c.tail...)
}

// MicrocodeApp wraps an assembled program as a PFE application. EgressPort
// selects where forwarded packets leave; Entry is the first instruction
// label ("" means the program's first instruction) and is resolved when the
// program compiles, so set it before that. Setup, when non-nil, initializes
// thread registers from the packet (the dispatcher's metadata hand-off, e.g.
// r1 = packet length). The thread Setup and Finish see is the app's one
// thread, reset for the next packet: neither may retain it.
//
// Packets dispatch through the compiled v2 pipeline: Compile, or the first
// Process call when the installer did not call it, compiles and statically
// verifies Program, and every thread then runs on microcode.RunCompiled. A
// program that fails to compile never runs: each packet drops and counts in
// Errors. Interpreted runs the same app on the reference interpreter: the
// twin tests' reference arm.
type MicrocodeApp struct {
	Program    *microcode.Program
	Entry      string
	EgressPort int
	Setup      func(th *microcode.Thread, ctx *Ctx)

	// EgressReg, when nonzero, names the thread register whose low bits
	// select the egress port for forwarded packets, overriding EgressPort —
	// the microcode equivalent of a next-hop lookup result feeding the MQSS.
	// Register 0 cannot be an egress register (it doubles as the disabled
	// sentinel); programs use r1..r31.
	EgressReg int

	// Finish, when non-nil, runs after a thread terminates normally and its
	// verdict has been applied — the reinject/replication hand-off (§2.3:
	// egress replication happens in the MQSS, not the PPE). It sees the
	// thread's final registers and local memory; netrpc uses it to fan a
	// served result out to every coalesced waiter via ctx.Emit. It does not
	// run for faulted threads (those drop).
	Finish func(th *microcode.Thread, ctx *Ctx, v microcode.Verdict)

	// Errors counts packets whose thread terminated abnormally (budget, bad
	// label, run-time fault) or that found the program failing to compile;
	// LastError records the most recent cause.
	Errors    uint64
	LastError error

	compiled    *microcode.Compiled
	compileDone bool
	entryPC     int // Entry resolved against compiled

	// One thread's state, reset per packet rather than reallocated. A PFE
	// runs each thread to completion inside Process, so the app (which serves
	// one PFE) never has two in flight.
	th  microcode.Thread
	env microcode.ChipEnv
}

// Compile eagerly lowers the app's program through the verify/compile
// pipeline and resolves Entry against it, returning the verifier's objection
// (or the unknown label) if there is one. Installers call it to surface bad
// programs at install time instead of per packet.
func (m *MicrocodeApp) Compile() error {
	if m.compileDone {
		if m.compiled == nil {
			return m.LastError
		}
		return nil
	}
	m.compileDone = true
	c, err := microcode.Compile(m.Program)
	if err == nil {
		var ok bool
		if m.entryPC, ok = c.Lookup(m.entry()); !ok {
			err = fmt.Errorf("microcode: entry label %q not found", m.entry())
		}
	}
	if err != nil {
		m.LastError = err
		return err
	}
	m.compiled = c
	return nil
}

func (m *MicrocodeApp) entry() string {
	if m.Entry != "" {
		return m.Entry
	}
	return m.Program.Instrs[0].Label
}

// Compiled returns the lowered program, or nil if compilation has not
// happened or failed.
func (m *MicrocodeApp) Compiled() *microcode.Compiled { return m.compiled }

// Process implements App.
func (m *MicrocodeApp) Process(ctx *Ctx) {
	if m.compiled == nil {
		// Lazy path for apps installed without Compile. A program the
		// verifier rejects executes no instruction.
		if err := m.Compile(); err != nil {
			m.Errors++
			m.LastError = err
			ctx.Drop()
			return
		}
	}
	m.run(ctx, false)
}

// Interpreted returns an App that runs m's program on the reference
// tree-walking interpreter (microcode.RunLimited), uncompiled and
// unverified, counting errors in m: the reference arm of the tests that
// hold the compiled dispatcher to the interpreter on a whole rig.
func Interpreted(m *MicrocodeApp) App {
	return AppFunc(func(ctx *Ctx) { m.run(ctx, true) })
}

// run executes one packet's thread on the compiled program, or on the
// interpreter when interpret is set.
func (m *MicrocodeApp) run(ctx *Ctx, interpret bool) {
	m.env.Mem, m.env.Hash, m.env.Tail = ctx.pfe.Mem, ctx.pfe.Hash, ctx.tail
	th := &m.th
	th.Reset(&m.env, ctx.now)
	th.LoadHead(ctx.head)
	if m.Setup != nil {
		m.Setup(th, ctx)
	}
	var v microcode.Verdict
	var err error
	if interpret {
		v, err = microcode.RunLimited(m.Program, th, m.entry(), microcode.DefaultBudget)
	} else {
		v, err = microcode.RunCompiledAt(m.compiled, th, m.entryPC, microcode.DefaultBudget)
	}
	ctx.now = th.Now
	ctx.stats.Add(th.Stats)
	if err != nil {
		m.Errors++
		m.LastError = err
		ctx.Drop()
		return
	}
	// Unload the (possibly rewritten) head from local memory.
	copy(ctx.head, th.LMem[:len(ctx.head)])
	switch v {
	case microcode.VerdictForward:
		port := m.EgressPort
		if m.EgressReg != 0 {
			port = int(th.Regs[m.EgressReg] % uint64(ctx.pfe.Cfg.NumPorts))
		}
		ctx.Forward(port)
	case microcode.VerdictConsume:
		ctx.Consume()
	default:
		ctx.Drop()
	}
	if m.Finish != nil {
		m.Finish(th, ctx, v)
	}
}
