// Package pfe models one Trio Packet Forwarding Engine (§2.1–§2.2 of the
// paper): the Dispatch module that splits packets into heads and tails and
// hands heads to Packet Processing Engine threads, the run-to-completion
// multi-threaded PPE pool, the Reorder Engine that restores per-flow order,
// the egress queueing subsystem, and the timer threads of §5.
//
// Applications attach to a PFE either as native handlers (implementing App
// with explicit cycle accounting, the way internal/trioml does) or as
// Microcode programs via MicrocodeApp, which adapts a PPE thread context to
// the microcode.Env XTXN interface. Both charge an instruction
// microcode.InstrTime.
//
// The PPE complex is one operating point, set by constants: NumPPEs ×
// ThreadsPerPPE threads and HeadBytes heads. A Config sets only what
// callers vary: a PFE's ID and ports, its memory's RMW engine count and its
// hash table's size.
package pfe

import (
	"fmt"
	"math/bits"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/smem"
)

// The PPE complex of the 5th-generation chipset (§2.1–§2.2). A thread's
// instruction time is microcode.InstrTime; the shared memory's operating
// point is smem's.
const (
	NumPPEs       = 96 // PPEs per PFE: "hundreds" across generations, on the order of 100 in the 5th (§2.1)
	ThreadsPerPPE = 20 // "tens of threads" per PPE (§2.2)
	Threads       = NumPPEs * ThreadsPerPPE
	HeadBytes     = 192 // the head Dispatch copies into a thread's local memory (Fig. 10)
)

// Config sizes a PFE. Zero fields take DefaultConfig's.
type Config struct {
	ID            int
	NumPorts      int
	PortBandwidth uint64 // bits per second per port
	Mem           smem.Config
	Hash          hasheng.Config
}

// DefaultConfig returns sixteen 100 Gbps ports.
func DefaultConfig() Config {
	return Config{NumPorts: 16, PortBandwidth: 100_000_000_000}
}

// Packet is one frame inside the PFE. The running thread's Packet lives in
// the PFE's one Ctx, which the next thread reuses: Ctx.Packet() is valid only
// until Process returns.
type Packet struct {
	Frame   []byte
	Port    int    // ingress port
	Flow    uint64 // flow key for the Reorder Engine
	Arrival sim.Time

	seq uint64     // per-flow sequence assigned by dispatch
	fs  *flowState // the flow's Reorder Engine state, resolved at dispatch
}

// Verdict is a thread's disposition of its packet (mirrors microcode).
type Verdict int

// Packet verdicts.
const (
	// VerdictDrop discards the packet.
	VerdictDrop Verdict = iota
	// VerdictForward sends the (possibly rewritten) packet out an egress port.
	VerdictForward
	// VerdictConsume absorbs the packet into shared state (aggregation).
	VerdictConsume
)

// App is a packet-processing application attached to a PFE. Process runs in
// the context of one PPE thread; it must charge its compute via ctx and set
// a verdict (default: drop).
type App interface {
	Process(ctx *Ctx)
}

// AppFunc adapts a function to App.
type AppFunc func(ctx *Ctx)

// Process implements App.
func (f AppFunc) Process(ctx *Ctx) { f(ctx) }

// Output delivers an egress frame to whatever is attached to a port.
type Output func(port int, frame []byte, at sim.Time)

// Stats aggregates PFE activity.
type Stats struct {
	Dispatched   uint64
	Forwarded    uint64
	Dropped      uint64
	Consumed     uint64
	Emitted      uint64 // new packets created by applications
	TimerFirings uint64
	Instructions uint64
	MaxQueued    int // worst-case dispatch queue depth
	PeakBusy     int // worst-case concurrently busy PPE threads
	BytesOut     uint64
}

// PFE is one Packet Forwarding Engine.
type PFE struct {
	Cfg    Config
	Engine *sim.Engine
	Mem    *smem.Memory
	Hash   *hasheng.Table

	app   App
	out   Output
	queue []work // FIFO ring: live entries are queue[qhead:]
	qhead int
	ports []portState
	stats Stats

	// busy counts the PPE threads executing, of Threads. All threads are
	// interchangeable ("the PPE is selected based on availability", §2.1),
	// so a count plus completion events is the whole pool.
	busy int

	// Reorder Engine state. A cabled port's flow is its port number, so
	// flows below NumPorts index portFlows; any other 64-bit flow key falls
	// back to the map, whose entries live only while the flow has packets in
	// flight (drained states wait on flowFree). Both are made on first use:
	// a tree builds thousands of PFEs, and set-up should not pay for state
	// the first packet can bring.
	portFlows []flowState
	flows     map[uint64]*flowState
	flowFree  *flowState

	ctx          Ctx         // the one thread context, reset for every thread
	doneFree     *completion // recycled completion records
	deliveryFree []*delivery // recycled egress delivery records

	trace  *obs.Trace          // nil: tracing off (the default; see SetTrace)
	faults *faults.PFEInjector // nil: thread-stall injection off (the default)
}

type portState struct {
	freeAt sim.Time
	frames uint64
	bytes  uint64
	busy   sim.Time // cumulative serialization time
}

// work is one unit for the thread pool: a packet or a timer firing. The
// packet rides by value until a thread context takes it (Ctx.load), so it is
// never a heap object of its own.
type work struct {
	pkt   Packet       // unused for timer work
	timer *timerThread // nil for packet work
}

// New builds a PFE bound to a simulation engine.
func New(eng *sim.Engine, cfg Config) *PFE {
	def := DefaultConfig()
	if cfg.NumPorts == 0 {
		cfg.NumPorts = def.NumPorts
	}
	if cfg.PortBandwidth == 0 {
		cfg.PortBandwidth = def.PortBandwidth
	}
	p := &PFE{
		Cfg:    cfg,
		Engine: eng,
		Mem:    smem.New(cfg.Mem),
		Hash:   hasheng.NewTable(cfg.Hash),
		ports:  make([]portState, cfg.NumPorts),
	}
	p.ctx.pfe = p
	return p
}

// SetApp installs the packet-processing application.
func (p *PFE) SetApp(app App) { p.app = app }

// SetFaults attaches a PPE thread-stall injector (nil: off). A stalled work
// item occupies its thread for the injected duration before executing —
// modeling a PPE that temporarily stops making progress, the failure the §5
// timer threads exist to survive. Memory bank-error injection is separate:
// attach it via Mem.SetFaults.
func (p *PFE) SetFaults(f *faults.PFEInjector) { p.faults = f }

// SetOutput installs the egress delivery hook.
func (p *PFE) SetOutput(out Output) { p.out = out }

// Stats returns a snapshot of the PFE's counters.
func (p *PFE) Stats() Stats { return p.stats }

// PortStats summarizes one egress port's activity.
type PortStats struct {
	Frames uint64
	Bytes  uint64
	Busy   sim.Time // cumulative serialization time
}

// PortStats returns egress counters for a port.
func (p *PFE) PortStats(port int) PortStats {
	ps := p.ports[port]
	return PortStats{Frames: ps.frames, Bytes: ps.bytes, Busy: ps.busy}
}

// BusyThreads reports how many threads are currently executing.
func (p *PFE) BusyThreads() int { return p.busy }

// Inject delivers a frame to the PFE at the current virtual time, as if it
// arrived on the given ingress port. Flow identifies the reorder-engine flow
// (packets of one flow leave in arrival order; distinct flows may reorder).
func (p *PFE) Inject(port int, flow uint64, frame []byte) {
	if port < 0 || port >= p.Cfg.NumPorts {
		panic(fmt.Sprintf("pfe%d: inject on invalid port %d", p.Cfg.ID, port))
	}
	p.enqueue(work{pkt: Packet{Frame: frame, Port: port, Flow: flow, Arrival: p.Engine.Now()}})
}

// enqueue adds work and dispatches if a thread is free.
func (p *PFE) enqueue(w work) {
	p.queue = append(p.queue, w)
	if n := len(p.queue) - p.qhead; n > p.stats.MaxQueued {
		p.stats.MaxQueued = n
	}
	if p.trace != nil {
		p.trace.CounterValue("pfe", "work_queue_depth", int64(p.Cfg.ID),
			int64(p.Engine.Now()), float64(len(p.queue)-p.qhead))
	}
	p.tryDispatch()
}

// tryDispatch starts queued work on free threads. It runs inside an event,
// so p.Engine.Now() is the dispatch time.
func (p *PFE) tryDispatch() {
	for p.busy < Threads && p.qhead < len(p.queue) {
		w := p.queue[p.qhead]
		p.queue[p.qhead] = work{}
		p.qhead++
		if p.qhead == len(p.queue) {
			p.queue = p.queue[:0]
			p.qhead = 0
		}
		p.busy++
		p.stats.PeakBusy = max(p.stats.PeakBusy, p.busy)
		p.runWork(&w)
	}
}

// load hands pkt to the context as Dispatch does: the context keeps its own
// copy of the packet record, the first HeadBytes are copied into the
// thread's local memory, and the tail stays in the Packet Buffer (§2.1).
func (c *Ctx) load(pkt *Packet) {
	c.pktBuf = *pkt
	c.pkt = &c.pktBuf
	c.head = c.headArr[:copy(c.headArr[:], pkt.Frame)]
	c.tail = pkt.Frame[len(c.head):]
}

// enter resets the PFE's one thread context for a thread starting now. A
// thread runs to completion inside Process, so the context is free again
// when Process returns; a dispatch on this PFE from inside Process (an app
// calling Inject on its own PFE) would overwrite the running thread's state,
// and panics instead.
func (p *PFE) enter() *Ctx {
	c := &p.ctx
	if c.running {
		panic(fmt.Sprintf("pfe%d: work dispatched while a thread is running: "+
			"an app must not dispatch on its own PFE from inside Process", p.Cfg.ID))
	}
	c.running = true
	c.threadState = threadState{now: p.Engine.Now()}
	return c
}

// runWork executes one work item on a PPE thread starting now, and schedules
// its completion with what the completion event needs copied out of the
// context.
func (p *PFE) runWork(w *work) {
	ctx := p.enter()
	// The trace thread id is the busy-slot index (1..Threads): stacked tracks in
	// the viewer read directly as instantaneous pool occupancy.
	ctx.tslot = int64(p.busy)
	if p.faults != nil {
		// An injected stall holds the thread busy before any processing:
		// the packet (or timer firing) sits on a wedged PPE.
		ctx.now += p.faults.Stall()
	}
	start := ctx.now
	if w.timer == nil {
		p.stats.Dispatched++
		if p.trace != nil {
			p.trace.Complete("dispatch", "queue", int64(p.Cfg.ID), 0,
				int64(w.pkt.Arrival), int64(start-w.pkt.Arrival))
		}
		// Register with the Reorder Engine before processing so that
		// completion order cannot jump arrival order within a flow.
		p.reorderArrive(&w.pkt)
		ctx.load(&w.pkt)
		if p.app == nil {
			ctx.Drop()
		} else {
			p.app.Process(ctx)
		}
	} else {
		p.stats.TimerFirings++
		w.timer.body(ctx, w.timer.part)
	}
	p.stats.Instructions += ctx.stats.Instructions
	if p.trace != nil {
		name := "packet"
		if w.timer != nil {
			name = "timer"
		}
		p.trace.Complete("ppe", name, int64(p.Cfg.ID), ctx.tslot,
			int64(start), int64(ctx.now-start))
	}

	d := p.getCompletion()
	if pkt := ctx.pkt; pkt != nil {
		d.fs, d.seq, d.flow, d.verdict = pkt.fs, pkt.seq, pkt.Flow, ctx.verdict
		if ctx.verdict == VerdictForward {
			// The head lives in the context, which the next thread reuses:
			// the forwarded frame is reassembled now.
			d.frame, d.port = ctx.rebuildFrame(), int32(ctx.egressPort)
		} else {
			d.frame = pkt.Frame
		}
	}
	if len(ctx.emits) > 0 {
		d.emits = append(d.emits, ctx.emits...)
		clear(ctx.emits)
		ctx.emits = ctx.emits[:0]
	}
	ctx.running = false
	p.Engine.AtFunc(ctx.now, workDone, d)
}

// completion is what a finished thread leaves for its completion event: the
// Reorder Engine position and verdict of its packet (fs is nil for a timer
// thread), the packet's frame, and the emits, in which a multicast is one
// entry holding its port list, however many ports it reaches. Records
// recycle through PFE.doneFree, which grows completionChunk records at a
// time, so a thread in flight costs one small record and no allocation of
// its own.
type completion struct {
	p    *PFE
	fs   *flowState
	seq  uint64
	flow uint64
	// frame is the packet as the Packet Buffer holds it until the thread
	// completes (§2.1): reassembled if forwarded, else as it arrived. Holding
	// it keeps the host heap's live set, and so how often the GC runs, in
	// step with the packets in flight.
	frame   []byte
	emits   []emit
	verdict Verdict
	port    int32 // egress port of a forwarded frame
	next    *completion
}

const completionChunk = 32

// getCompletion takes a record from the free list, refilling the list with a
// fresh chunk when it is empty.
func (p *PFE) getCompletion() *completion {
	if p.doneFree == nil {
		chunk := new([completionChunk]completion)
		for i := len(chunk) - 1; i >= 0; i-- {
			chunk[i] = completion{p: p, next: p.doneFree}
			p.doneFree = &chunk[i]
		}
	}
	d := p.doneFree
	p.doneFree, d.next = d.next, nil
	return d
}

// workDone is the thread-completion event: release the PPE thread, route the
// verdict, flush emits, recycle the record, and pull in queued work.
func workDone(arg any) {
	d := arg.(*completion)
	p := d.p
	p.busy--
	if d.fs != nil {
		p.complete(d)
	}
	p.emitAll(d.emits)
	clear(d.emits)
	d.fs, d.frame, d.emits = nil, nil, d.emits[:0]
	d.next, p.doneFree = p.doneFree, d
	p.tryDispatch()
}

// complete routes a finished packet thread's verdict through the Reorder
// Engine and egress.
func (p *PFE) complete(d *completion) {
	var out []byte
	switch d.verdict {
	case VerdictForward:
		p.stats.Forwarded++
		out = d.frame
	case VerdictConsume:
		p.stats.Consumed++
	default:
		p.stats.Dropped++
	}
	p.reorderComplete(d.fs, d.seq, d.flow, out, int(d.port))
}

// emitAll sends application-created packets (e.g. aggregation results)
// straight to egress; they are new flows, so the Reorder Engine is not
// involved. A multicast reaches egress as the one list the thread emitted.
func (p *PFE) emitAll(emits []emit) {
	now := p.Engine.Now()
	for i := range emits {
		e := &emits[i]
		if e.ports == nil {
			p.stats.Emitted++
			p.unicast(e.port, e.frame, now)
			continue
		}
		p.stats.Emitted += uint64(len(e.ports))
		p.egress(p.getDelivery(), e.ports, e.frame, now)
	}
}

// unicast sends frame out one port: egress with a list of one, held in the
// delivery record itself.
func (p *PFE) unicast(port int, frame []byte, ready sim.Time) {
	d := p.getDelivery()
	d.one[0] = port
	p.egress(d, d.one[:], frame, ready)
}

// egress serializes one copy of frame onto each port of ports, in list
// order, at the ports' line rate, and schedules each copy's delivery to the
// output hook at its departure. Every copy is booked on its port (counters,
// trace span) and gets its own event, as a frame per port would; what the
// copies share is the delivery record that tells the events which port each
// one is for. The record hands out its ports in list order, which is firing
// order as long as departures do not decrease along the list (events at one
// instant fire in the order they were scheduled). A copy that departs
// before the one booked ahead of it — its port was idle while the earlier
// one's was backlogged — starts a new run of the list in a record of its
// own. So a multicast onto ports of equal backlog, the common case, is one
// record; d is the record for the list's first run, recycled if no copy
// needed it.
func (p *PFE) egress(d *delivery, ports []int, frame []byte, ready sim.Time) {
	ser := sim.Time(uint64(len(frame)) * 8 * uint64(sim.Second) / p.Cfg.PortBandwidth)
	run := d
	run.p, run.frame, run.ports = p, frame, ports[:0]
	var last sim.Time
	for i, port := range ports {
		if port < 0 || port >= len(p.ports) {
			panic(fmt.Sprintf("pfe%d: egress on invalid port %d", p.Cfg.ID, port))
		}
		ps := &p.ports[port]
		start := max(ready, ps.freeAt)
		depart := start + ser
		ps.freeAt = depart
		ps.frames++
		ps.bytes += uint64(len(frame))
		ps.busy += ser
		p.stats.BytesOut += uint64(len(frame))
		if p.trace != nil {
			p.trace.Complete("egress", "tx", int64(p.Cfg.ID),
				egressTidBase+int64(port), int64(start), int64(ser))
		}
		if p.out == nil {
			continue
		}
		if depart < last {
			run = p.getDelivery()
			run.p, run.frame, run.ports = p, frame, ports[i:i]
		}
		last = depart
		run.ports = run.ports[:len(run.ports)+1]
		p.Engine.AtFunc(depart, deliver, run)
	}
	if len(d.ports) == 0 {
		p.putDelivery(d)
	}
}

// delivery is one frame on its way from egress to the output hook on a run
// of ports: a unicast's one port (held in one), or a run of a multicast's
// list, which is the list the thread passed to Ctx.Multicast, held and not
// copied. Each of the run's events takes the next port off the front; the
// last one recycles the record through PFE.deliveryFree, so steady-state
// egress allocates no event state, and a multicast to 200 ports costs what
// one to 4 does.
type delivery struct {
	p     *PFE
	frame []byte
	ports []int // the ports still to fire, in firing order
	one   [1]int
}

// getDelivery takes a record from the free list, or makes one.
func (p *PFE) getDelivery() *delivery {
	n := len(p.deliveryFree)
	if n == 0 {
		return &delivery{}
	}
	d := p.deliveryFree[n-1]
	p.deliveryFree = p.deliveryFree[:n-1]
	return d
}

// putDelivery drops the record's references and returns it to the free
// list.
func (p *PFE) putDelivery(d *delivery) {
	d.frame, d.ports = nil, nil
	p.deliveryFree = append(p.deliveryFree, d)
}

// deliver is one copy's departure: the record's next port gets the frame.
func deliver(arg any) {
	d := arg.(*delivery)
	p, port, frame := d.p, d.ports[0], d.frame
	if d.ports = d.ports[1:]; len(d.ports) == 0 {
		p.putDelivery(d)
	}
	p.out(port, frame, p.Engine.Now())
}

// ---- Reorder Engine (§2.1) ----

// flowState sequences one flow: packets take consecutive numbers at dispatch
// and leave in that order. A packet that completes in order with nothing
// parked — the common case — touches two counters and nothing else.
type flowState struct {
	nextSeq     uint64 // next sequence number to assign at dispatch
	nextRelease uint64 // next sequence number eligible to leave

	// ring parks completions that overtook nextRelease: sequence s waits in
	// ring[s&(len(ring)-1)]. Its length is a power of two above the widest
	// gap s-nextRelease seen, so live entries never collide.
	ring   []parkedPkt
	parked int

	free *flowState // PFE.flowFree link while a map-fallback state is idle
}

type parkedPkt struct {
	frame []byte // nil for dropped/consumed packets (they release order only)
	port  int32
	done  bool
}

// reorderArrive resolves pkt's flow state and assigns its sequence number.
func (p *PFE) reorderArrive(pkt *Packet) {
	var fs *flowState
	if pkt.Flow < uint64(p.Cfg.NumPorts) {
		if p.portFlows == nil {
			p.portFlows = make([]flowState, p.Cfg.NumPorts)
		}
		fs = &p.portFlows[pkt.Flow]
	} else if fs = p.flows[pkt.Flow]; fs == nil {
		if fs = p.flowFree; fs != nil {
			p.flowFree, fs.free = fs.free, nil
		} else {
			fs = &flowState{}
		}
		if p.flows == nil {
			p.flows = make(map[uint64]*flowState)
		}
		p.flows[pkt.Flow] = fs
	}
	pkt.fs, pkt.seq = fs, fs.nextSeq
	fs.nextSeq++
}

// reorderComplete records a finished packet and releases the contiguous
// prefix of its flow. "The Reorder Engine holds the updated packet head
// until all earlier arriving packets in the same flow have been processed."
func (p *PFE) reorderComplete(fs *flowState, seq, flow uint64, frame []byte, port int) {
	if seq != fs.nextRelease {
		fs.park(seq, frame, port)
		return
	}
	fs.nextRelease++
	if frame != nil {
		p.unicast(port, frame, p.Engine.Now())
	}
	for fs.parked > 0 {
		slot := &fs.ring[fs.nextRelease&uint64(len(fs.ring)-1)]
		if !slot.done {
			break
		}
		r := *slot
		*slot = parkedPkt{}
		fs.parked--
		fs.nextRelease++
		if r.frame != nil {
			p.unicast(int(r.port), r.frame, p.Engine.Now())
		}
	}
	if fs.nextRelease == fs.nextSeq && flow >= uint64(p.Cfg.NumPorts) {
		// Nothing of this flow is in flight: an arbitrary flow key must not
		// hold state while idle. Numbering restarts when it next arrives.
		delete(p.flows, flow)
		fs.nextSeq, fs.nextRelease = 0, 0
		p.flowFree, fs.free = fs, p.flowFree
	}
}

// park holds a completion that overtook an earlier packet of its flow.
func (fs *flowState) park(seq uint64, frame []byte, port int) {
	if gap := seq - fs.nextRelease; gap >= uint64(len(fs.ring)) {
		ring := make([]parkedPkt, max(4, 1<<bits.Len64(gap)))
		for i := range fs.ring { // re-seat what is parked under the new mask
			s := fs.nextRelease + uint64(i)
			ring[s&uint64(len(ring)-1)] = fs.ring[s&uint64(len(fs.ring)-1)]
		}
		fs.ring = ring
	}
	fs.ring[seq&uint64(len(fs.ring)-1)] = parkedPkt{frame: frame, port: int32(port), done: true}
	fs.parked++
}

// ---- Timer threads (§5) ----

// timerThread is one §5 periodic thread: its slot in the engine re-arms in
// place and each firing enqueues the same work value, so steady-state timer
// firing allocates nothing.
type timerThread struct {
	p    *PFE
	part int
	body func(ctx *Ctx, part int)
}

func timerFire(arg any) {
	tt := arg.(*timerThread)
	tt.p.enqueue(work{timer: tt})
}

// TimerThreads is a cancellable handle on a group of §5 timer threads. Stop
// removes every pending tick from the event queue (the old stop-closure left
// dead ticks queued).
type TimerThreads struct {
	handles []sim.Handle
}

// Stop cancels all threads in the group. Safe to call more than once.
func (t *TimerThreads) Stop() {
	for _, h := range t.handles {
		h.Stop()
	}
}

// StartTimerThreads launches n periodic timer threads with the given overall
// period, phase-staggered so back-to-back firings are period/n apart. Each
// firing occupies a PPE thread (any PPE, based on availability — no PPE is
// reserved) and runs body with its partition index.
func (p *PFE) StartTimerThreads(n int, period sim.Time, body func(ctx *Ctx, part int)) *TimerThreads {
	if n <= 0 || period <= 0 {
		panic("pfe: timer threads require n > 0 and a positive period")
	}
	g := &TimerThreads{handles: make([]sim.Handle, n)}
	for i := 0; i < n; i++ {
		tt := &timerThread{p: p, part: i, body: body}
		offset := period * sim.Time(i) / sim.Time(n)
		g.handles[i] = p.Engine.EveryFunc(offset, period, timerFire, tt)
	}
	return g
}
