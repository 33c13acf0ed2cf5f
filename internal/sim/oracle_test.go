package sim

import "fmt"

// refEngine is the scheduler as it stood before the heap carried its keys: a
// 4-ary heap of int32 slab indices whose every comparison dereferences two
// slab events, over an append-grown slab with separate fn/afn callback
// fields. Its queue logic is kept line for line (obs and cluster dropped) as
// the oracle TestEngineTwin drives beside Engine: fired (at, seq) sequences
// and the full Metrics struct must agree.
type refEngine struct {
	now      Time
	seq      uint64
	executed uint64

	slab     []refEvent
	freeHead int32
	heap     []int32

	wheel      [wheelSlots]int32
	cursor     int64
	wheelCount int

	live int
	m    Metrics
}

type refEvent struct {
	at     Time
	seq    uint64
	fn     func()
	afn    EventFunc
	arg    any
	period Time
	next   int32
	gen    uint32
	state  uint8
}

type refHandle struct {
	eng *refEngine
	idx int32
	gen uint32
}

func (h refHandle) Stop() bool { return h.eng.cancel(h.idx, h.gen) }

func newRefEngine() *refEngine {
	e := &refEngine{freeHead: -1}
	for i := range e.wheel {
		e.wheel[i] = -1
	}
	return e
}

func (e *refEngine) Metrics() Metrics {
	m := e.m
	m.Executed = e.executed
	m.Pending = e.live
	return m
}

func (e *refEngine) At(t Time, fn func()) refHandle {
	return e.schedule(t, fn, nil, nil, 0)
}

func (e *refEngine) AtFunc(t Time, fn EventFunc, arg any) refHandle {
	return e.schedule(t, nil, fn, arg, 0)
}

func (e *refEngine) Every(offset, period Time, fn func()) refHandle {
	return e.schedule(e.now+offset, fn, nil, nil, period)
}

func (e *refEngine) schedule(t Time, fn func(), afn EventFunc, arg any, period Time) refHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", t, e.now))
	}
	e.seq++
	idx := e.allocSlot()
	ev := &e.slab[idx]
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.afn = afn
	ev.arg = arg
	ev.period = period
	ev.state = evArmed
	e.live++
	if e.live > e.m.PeakPending {
		e.m.PeakPending = e.live
	}
	e.m.Scheduled++
	e.enqueue(idx)
	return refHandle{eng: e, idx: idx, gen: ev.gen}
}

func (e *refEngine) Step() bool {
	idx := e.popLive()
	if idx < 0 {
		return false
	}
	ev := &e.slab[idx]
	e.now = ev.at
	e.executed++
	if ev.period <= 0 {
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		e.live--
		e.freeSlot(idx)
		if afn != nil {
			afn(arg)
		} else {
			fn()
		}
		return true
	}
	if ev.afn != nil {
		afn, arg := ev.afn, ev.arg
		afn(arg)
	} else {
		fn := ev.fn
		fn()
	}
	ev = &e.slab[idx] // the callback may have grown the slab
	if ev.state == evCancelled {
		e.freeSlot(idx)
		return true
	}
	e.seq++
	ev.at += ev.period
	ev.seq = e.seq
	e.m.Rearmed++
	e.enqueue(idx)
	return true
}

func (e *refEngine) RunUntil(deadline Time) {
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

func (e *refEngine) allocSlot() int32 {
	if e.freeHead >= 0 {
		idx := e.freeHead
		e.freeHead = e.slab[idx].next
		e.slab[idx].next = -1
		return idx
	}
	e.slab = append(e.slab, refEvent{next: -1})
	if len(e.slab) > e.m.SlabPeak {
		e.m.SlabPeak = len(e.slab)
	}
	return int32(len(e.slab) - 1)
}

func (e *refEngine) freeSlot(idx int32) {
	ev := &e.slab[idx]
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	ev.period = 0
	ev.state = evFree
	ev.gen++
	ev.next = e.freeHead
	e.freeHead = idx
}

func (e *refEngine) cancel(idx int32, gen uint32) bool {
	if idx < 0 || int(idx) >= len(e.slab) {
		return false
	}
	ev := &e.slab[idx]
	if ev.gen != gen || ev.state != evArmed {
		return false
	}
	ev.state = evCancelled
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	e.live--
	e.m.Cancelled++
	return true
}

func (e *refEngine) enqueue(idx int32) {
	ev := &e.slab[idx]
	b := int64(ev.at) >> granBits
	if b >= e.cursor && b < e.cursor+wheelSlots {
		s := b & wheelMask
		ev.next = e.wheel[s]
		e.wheel[s] = idx
		e.wheelCount++
		e.m.WheelInserts++
		return
	}
	e.heapPush(idx)
	e.m.HeapInserts++
}

func (e *refEngine) settle() {
	if e.wheelCount == 0 {
		return
	}
	b := e.cursor
	for e.wheel[b&wheelMask] < 0 {
		b++
	}
	if len(e.heap) > 0 && e.slab[e.heap[0]].at < Time(b<<granBits) {
		e.cursor = b
		return
	}
	idx := e.wheel[b&wheelMask]
	e.wheel[b&wheelMask] = -1
	for idx >= 0 {
		nx := e.slab[idx].next
		e.slab[idx].next = -1
		e.heapPush(idx)
		e.m.HeapInserts++
		e.wheelCount--
		idx = nx
	}
	e.cursor = b + 1
}

func (e *refEngine) popLive() int32 {
	for {
		e.settle()
		if len(e.heap) == 0 {
			if e.wheelCount == 0 {
				return -1
			}
			continue
		}
		idx := e.heapPop()
		if e.slab[idx].state == evCancelled {
			e.freeSlot(idx)
			continue
		}
		return idx
	}
}

func (e *refEngine) peek() (Time, bool) {
	for {
		e.settle()
		if len(e.heap) == 0 {
			if e.wheelCount == 0 {
				return 0, false
			}
			continue
		}
		top := e.heap[0]
		if e.slab[top].state == evCancelled {
			e.heapPop()
			e.freeSlot(top)
			continue
		}
		return e.slab[top].at, true
	}
}

func (e *refEngine) heapLess(a, b int32) bool {
	ea, eb := &e.slab[a], &e.slab[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (e *refEngine) heapPush(idx int32) {
	e.heap = append(e.heap, idx)
	if len(e.heap) > e.m.PeakHeap {
		e.m.PeakHeap = len(e.heap)
	}
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.heapLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

func (e *refEngine) heapPop() int32 {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.heap = h[:last]
	n := last
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.heapLess(e.heap[j], e.heap[m]) {
				m = j
			}
		}
		if !e.heapLess(e.heap[m], e.heap[i]) {
			break
		}
		e.heap[i], e.heap[m] = e.heap[m], e.heap[i]
		i = m
	}
	return top
}
