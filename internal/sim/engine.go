package sim

import (
	"fmt"
	"math/bits"

	"github.com/trioml/triogo/internal/obs"
)

// EventFunc is the argument-passing callback form. Scheduling a package-level
// EventFunc with a pointer-typed arg costs no allocation, unlike a func()
// literal, which captures its environment on the heap. Hot paths (PFE
// completion events, link deliveries, §5 timer threads) use this form.
type EventFunc func(arg any)

// Handle identifies a scheduled event and can cancel it. The zero Handle is
// inert. Handles are small values; copying them is free.
//
// Cancellation is lazy: Stop marks the event as a tombstone and it is
// discarded (and its slot reclaimed) when the queue would otherwise reach it.
// Pending, Run, and RunUntil all observe only live events, so a cancelled
// periodic timer neither inflates Pending() nor keeps Run() stepping.
type Handle struct {
	eng *Engine
	idx int32
	gen uint32
}

// Stop cancels the event. It reports whether the event was still pending
// (false if it already fired, was already stopped, or the Handle is zero).
// Stopping a periodic event from inside its own callback prevents the re-arm.
func (h Handle) Stop() bool {
	if h.eng == nil {
		return false
	}
	return h.eng.cancel(h.idx, h.gen)
}

// Active reports whether the event is still scheduled (for a periodic event:
// still armed).
func (h Handle) Active() bool {
	if h.eng == nil || h.idx < 0 || int(h.idx) >= h.eng.slots {
		return false
	}
	ev := h.eng.ev(h.idx)
	return ev.gen == h.gen && ev.state == evArmed
}

// event is one scheduled callback, stored by value in the engine's slab: 64
// bytes, one cache line of a (page-aligned) slab chunk. The closure forms
// (At/After/Every) store their func() as arg behind callFunc, so there is one
// callback shape. A positive period marks a periodic event: after each firing
// the engine re-arms the same slot, so steady-state periodic firing allocates
// nothing.
type event struct {
	at     Time
	seq    uint64 // tie-break: FIFO among equal timestamps
	fn     EventFunc
	arg    any
	period Time
	next   int32 // intrusive link: wheel-slot chain, run or free list
	gen    uint32
	state  uint8
}

// callFunc is the EventFunc behind the closure schedule forms. A func value
// is pointer-shaped, so carrying it in arg allocates nothing.
func callFunc(arg any) { arg.(func())() }

// run is a FIFO of queued events sharing one timestamp, chained head to tail
// through event.next in ascending seq order. A free run record threads the
// run free list through head.
type run struct {
	at         Time
	head, tail int32
}

// heapEntry is one run as the heap sees it: its head's (at, seq) key by value
// beside the run index, so a sift compares contiguous heap memory — the four
// children of a node span 96 bytes — and never dereferences a run or the
// slab.
type heapEntry struct {
	at  Time
	seq uint64
	run int32
}

func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The slab and the run table grow one fixed-size chunk at a time, so growth
// never copies live records and an *event stays valid while callbacks
// schedule more.
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

const (
	evFree      uint8 = iota
	evArmed           // queued (or a periodic event currently firing)
	evCancelled       // tombstone: reclaimed when popped or drained
)

// Timer-wheel geometry. The wheel covers wheelSlots buckets of granTime each
// (8.192 µs × 4096 ≈ 33.6 ms) ahead of the drain cursor — comfortably past
// the §5 timer periods (1–20 ms) that dominate Fig. 14/15/16 runs, so dense
// periodic re-arms are O(1) list pushes instead of O(log n) heap churn.
// Events beyond the horizon overflow to the heap and cost what they used to.
const (
	granBits   = 13
	granTime   = Time(1) << granBits
	wheelBits  = 12
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
)

// Metrics is the engine's self-instrumentation snapshot.
type Metrics struct {
	Scheduled    uint64 // At/AtFunc/Every/... calls accepted
	Executed     uint64 // live events fired
	Rearmed      uint64 // periodic re-arms (no allocation)
	Cancelled    uint64 // Handle.Stop hits
	WheelInserts uint64 // enqueues absorbed by the timer wheel
	HeapInserts  uint64 // events enqueued (or drained from the wheel) into heap runs
	PeakPending  int    // high-water live event count
	PeakHeap     int    // high-water count of queued events outside the wheel
	SlabPeak     int    // high-water allocated event slots (slab size)
	Pending      int    // live events at snapshot time
}

func (m Metrics) String() string {
	return fmt.Sprintf("scheduled=%d executed=%d rearmed=%d cancelled=%d wheel=%d heap=%d peakPending=%d peakHeap=%d slab=%d",
		m.Scheduled, m.Executed, m.Rearmed, m.Cancelled,
		m.WheelInserts, m.HeapInserts, m.PeakPending, m.PeakHeap, m.SlabPeak)
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; model concurrency by scheduling events, not goroutines.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64

	slab     []*[chunkSize]event
	slots    int // event slots handed out so far; the next fresh index
	freeHead int32

	// heap is a 4-ary min-heap of runs ordered by their heads' (at, seq).
	// The wheel drains due buckets into it, so it is the single pop source;
	// runs sharing a timestamp merge by head key, so global FIFO order among
	// equal timestamps is preserved whichever run an event joined.
	heap   []heapEntry
	queued int // events held in runs, tombstones included

	runs    []*[chunkSize]run
	nruns   int // run records handed out so far
	runFree int32

	// index maps a timestamp to an open run (-1: none), direct-mapped by
	// a multiplicative hash; a miss only costs a new run. It is allocated
	// on the first run and doubles whenever live runs exceed half its
	// slots.
	index      []int32
	indexShift uint

	wheel      [wheelSlots]int32
	cursor     int64 // absolute bucket index of the next undrained slot
	wheelCount int

	live int
	m    Metrics

	// leadHist, when attached by RegisterObs, observes t-now per schedule.
	// Observe is a fixed-ladder scan plus atomic adds, so the schedule
	// path stays allocation-free with instrumentation on — and a single
	// nil check with it off.
	leadHist *obs.Histogram

	// cluster/pid place the engine inside a partitioned Cluster (see
	// partition.go); both stay zero for a standalone engine, and nothing
	// in the scheduling hot path reads them.
	cluster *Cluster
	pid     int
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	e := &Engine{freeHead: -1, runFree: -1}
	for i := range e.wheel {
		e.wheel[i] = -1
	}
	return e
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Cluster returns the partitioned cluster this engine belongs to, or nil for
// a standalone engine.
func (e *Engine) Cluster() *Cluster { return e.cluster }

// Partition reports the engine's partition index within its cluster (0 for a
// standalone engine).
func (e *Engine) Partition() int { return e.pid }

// Pending reports the number of scheduled live events not yet executed.
// Cancelled events are excluded even before their slots are reclaimed.
func (e *Engine) Pending() int { return e.live }

// Executed reports how many events have run since the engine was created.
func (e *Engine) Executed() uint64 { return e.executed }

// Metrics returns the engine's self-instrumentation counters.
func (e *Engine) Metrics() Metrics {
	m := e.m
	m.Executed = e.executed
	m.Pending = e.live
	return m
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a modelling bug, and silently reordering time
// would make results meaningless.
func (e *Engine) At(t Time, fn func()) Handle {
	return e.schedule(t, callFunc, fn, 0)
}

// After schedules fn to run d nanoseconds from now. Negative delays panic.
func (e *Engine) After(d Time, fn func()) Handle {
	return e.schedule(e.now+d, callFunc, fn, 0)
}

// AtFunc schedules fn(arg) at absolute time t. With a package-level fn and a
// pointer-typed arg this allocates nothing.
func (e *Engine) AtFunc(t Time, fn EventFunc, arg any) Handle {
	return e.schedule(t, fn, arg, 0)
}

// AfterFunc schedules fn(arg) to run d nanoseconds from now.
func (e *Engine) AfterFunc(d Time, fn EventFunc, arg any) Handle {
	return e.schedule(e.now+d, fn, arg, 0)
}

// Every schedules fn to run periodically with the given period, starting at
// now+offset. The period must be positive. The returned Handle stops the
// timer; after Stop no further firings occur and the pending tick is removed
// from the queue.
func (e *Engine) Every(offset, period Time, fn func()) Handle {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	return e.schedule(e.now+offset, callFunc, fn, period)
}

// EveryFunc is Every in argument-passing form: fn(arg) fires every period
// starting at now+offset, with zero allocations per firing.
func (e *Engine) EveryFunc(offset, period Time, fn EventFunc, arg any) Handle {
	if period <= 0 {
		panic("sim: EveryFunc requires a positive period")
	}
	return e.schedule(e.now+offset, fn, arg, period)
}

func (e *Engine) schedule(t Time, fn EventFunc, arg any, period Time) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	idx := e.allocSlot()
	ev := e.ev(idx)
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.arg = arg
	ev.period = period
	ev.state = evArmed
	e.live++
	if e.live > e.m.PeakPending {
		e.m.PeakPending = e.live
	}
	e.m.Scheduled++
	if e.leadHist != nil {
		e.leadHist.Observe(float64(t - e.now))
	}
	e.enqueue(idx, ev)
	return Handle{eng: e, idx: idx, gen: ev.gen}
}

// Step executes the earliest pending live event, advancing the clock to its
// timestamp. It reports whether an event was executed. Tombstones are
// reclaimed silently without advancing the clock.
func (e *Engine) Step() bool {
	idx := e.popLive()
	if idx < 0 {
		return false
	}
	ev := e.ev(idx)
	e.now = ev.at
	e.executed++
	fn, arg := ev.fn, ev.arg
	if ev.period <= 0 {
		e.live--
		e.freeSlot(idx, ev)
		fn(arg)
		return true
	}
	// Periodic: fire, then re-arm the same slot unless the callback
	// stopped it. The re-arm happens after the callback so events the
	// callback schedules order ahead of the next tick, exactly as the old
	// closure-chaining Every did.
	fn(arg)
	if ev.state == evCancelled {
		e.freeSlot(idx, ev)
		return true
	}
	e.seq++
	ev.at += ev.period
	ev.seq = e.seq
	e.m.Rearmed++
	e.enqueue(idx, ev)
	return true
}

// Run executes events until none remain live.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to the deadline (even if the queue drained earlier).
func (e *Engine) RunUntil(deadline Time) {
	for {
		t, ok := e.peek()
		if !ok || t > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// ---- internals ----

// ev returns the slab slot of an index handed out by allocSlot.
func (e *Engine) ev(idx int32) *event {
	return &e.slab[idx>>chunkBits][idx&chunkMask]
}

func (e *Engine) allocSlot() int32 {
	if e.freeHead >= 0 {
		idx := e.freeHead
		ev := e.ev(idx)
		e.freeHead = ev.next
		ev.next = -1
		return idx
	}
	idx := int32(e.slots)
	if e.slots == len(e.slab)*chunkSize {
		e.slab = append(e.slab, new([chunkSize]event))
	}
	e.slots++
	e.m.SlabPeak = e.slots
	e.ev(idx).next = -1
	return idx
}

func (e *Engine) freeSlot(idx int32, ev *event) {
	ev.fn, ev.arg = nil, nil
	ev.period = 0
	ev.state = evFree
	ev.gen++
	ev.next = e.freeHead
	e.freeHead = idx
}

func (e *Engine) cancel(idx int32, gen uint32) bool {
	if idx < 0 || int(idx) >= e.slots {
		return false
	}
	ev := e.ev(idx)
	if ev.gen != gen || ev.state != evArmed {
		return false
	}
	// Tombstone; drop callback references immediately so cancelled events
	// never pin their captures until the queue reaches them.
	ev.state = evCancelled
	ev.fn, ev.arg = nil, nil
	e.live--
	e.m.Cancelled++
	return true
}

// enqueue places an armed slot into the wheel when its bucket lies inside the
// horizon window [cursor, cursor+wheelSlots), else into the heap.
func (e *Engine) enqueue(idx int32, ev *event) {
	b := int64(ev.at) >> granBits
	if b >= e.cursor && b < e.cursor+wheelSlots {
		s := b & wheelMask
		ev.next = e.wheel[s]
		e.wheel[s] = idx
		e.wheelCount++
		e.m.WheelInserts++
		return
	}
	e.push(idx, ev)
}

// settle establishes the invariant that the heap top (if any) is the global
// minimum: it drains the next due wheel bucket into the heap unless an
// earlier heap event precedes it. All events drained from bucket b are
// earlier than every event in buckets > b, so one drain suffices.
func (e *Engine) settle() {
	if e.wheelCount == 0 {
		return
	}
	b := e.cursor
	for e.wheel[b&wheelMask] < 0 {
		b++
	}
	if len(e.heap) > 0 && e.heap[0].at < Time(b<<granBits) {
		e.cursor = b // remember the scan; buckets behind b are empty
		return
	}
	// The bucket chain is newest first: reverse it so the drain appends
	// to runs in seq order.
	idx, prev := e.wheel[b&wheelMask], int32(-1)
	e.wheel[b&wheelMask] = -1
	for idx >= 0 {
		ev := e.ev(idx)
		idx, ev.next, prev = ev.next, prev, idx
	}
	for idx = prev; idx >= 0; {
		ev := e.ev(idx)
		nx := ev.next
		e.push(idx, ev)
		e.wheelCount--
		idx = nx
	}
	e.cursor = b + 1
}

// popLive returns the slab index of the earliest live event, reclaiming any
// tombstones it passes, or -1 when nothing live remains.
func (e *Engine) popLive() int32 {
	for {
		e.settle()
		if len(e.heap) == 0 {
			if e.wheelCount == 0 {
				return -1
			}
			continue // wheel had only a due bucket to drain; settle again
		}
		idx := e.popHead()
		if ev := e.ev(idx); ev.state == evCancelled {
			e.freeSlot(idx, ev)
			continue
		}
		return idx
	}
}

// peek reports the timestamp of the earliest live event without executing it.
func (e *Engine) peek() (Time, bool) {
	for {
		e.settle()
		if len(e.heap) == 0 {
			if e.wheelCount == 0 {
				return 0, false
			}
			continue
		}
		top := e.heap[0]
		if idx := e.run(top.run).head; e.ev(idx).state == evCancelled {
			e.popHead()
			e.freeSlot(idx, e.ev(idx))
			continue
		}
		return top.at, true
	}
}

// ---- runs, their index, and the 4-ary heap of runs ----

// run returns the record of a run index handed out by allocRun.
func (e *Engine) run(r int32) *run {
	return &e.runs[r>>chunkBits][r&chunkMask]
}

func (e *Engine) allocRun() int32 {
	if r := e.runFree; r >= 0 {
		e.runFree = e.run(r).head
		return r
	}
	r := int32(e.nruns)
	if e.nruns == len(e.runs)*chunkSize {
		e.runs = append(e.runs, new([chunkSize]run))
	}
	e.nruns++
	return r
}

// freeRun returns an emptied run to the free list, first dropping it from
// the index if its slot still names it.
func (e *Engine) freeRun(r int32, rr *run) {
	if s := e.slot(rr.at); e.index[s] == r {
		e.index[s] = -1
	}
	rr.head = e.runFree
	e.runFree = r
}

// slot is a timestamp's index slot: the top bits of its runHash.
func (e *Engine) slot(at Time) uint64 { return runHash(at) >> e.indexShift }

// runHash is Fibonacci hashing: at times 2^64/phi, whose top bits spread
// evenly spaced timestamps across the index.
func runHash(at Time) uint64 { return uint64(at) * 0x9e3779b97f4a7c15 }

// runIndexMin is the index's first size, in slots.
const runIndexMin = 256

// growIndex doubles the index (or makes the first one) and refills it from
// the heap's runs. The heap holds at most half as many runs as the index has
// slots, so it is resized here too and push never reallocates it.
func (e *Engine) growIndex() {
	n := max(2*len(e.index), runIndexMin)
	e.heap = append(make([]heapEntry, 0, n/2), e.heap...)
	e.index = make([]int32, n)
	for i := range e.index {
		e.index[i] = -1
	}
	e.indexShift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, h := range e.heap {
		e.index[e.slot(h.at)] = h.run
	}
}

// push queues an event outside the wheel. It joins the tail of the indexed
// run for its timestamp when it orders after that run's tail — always, for
// an event scheduled now, whose seq is the newest — and otherwise opens a
// run of its own.
func (e *Engine) push(idx int32, ev *event) {
	ev.next = -1
	e.m.HeapInserts++
	if e.queued++; e.queued > e.m.PeakHeap {
		e.m.PeakHeap = e.queued
	}
	if len(e.index) > 0 {
		if r := e.index[e.slot(ev.at)]; r >= 0 {
			if rr := e.run(r); rr.at == ev.at {
				if tail := e.ev(rr.tail); tail.seq < ev.seq {
					tail.next = idx
					rr.tail = idx
					return
				}
			}
		}
	}
	if len(e.heap) >= len(e.index)/2 {
		e.growIndex()
	}
	r := e.allocRun()
	rr := e.run(r)
	rr.at, rr.head, rr.tail = ev.at, idx, idx
	e.index[e.slot(ev.at)] = r
	e.heapPush(heapEntry{at: ev.at, seq: ev.seq, run: r})
}

// popHead dequeues the head event of the top run and returns its slab index.
// A run left non-empty is re-keyed by its new head and sifts only if another
// run's head now precedes it; an emptied run leaves the heap.
func (e *Engine) popHead() int32 {
	top := &e.heap[0]
	rr := e.run(top.run)
	idx := rr.head
	e.queued--
	if nx := e.ev(idx).next; nx >= 0 {
		rr.head = nx
		top.seq = e.ev(nx).seq
		e.siftDown(0, *top)
		return idx
	}
	e.freeRun(top.run, rr)
	n := len(e.heap) - 1
	x := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0, x)
	}
	return idx
}

func (e *Engine) heapPush(x heapEntry) {
	e.heap = append(e.heap, x)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// siftDown places x into the hole at i: each level moves the smallest child
// up and only the final position is written with x.
func (e *Engine) siftDown(i int, x heapEntry) {
	h := e.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
