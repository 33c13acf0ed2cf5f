package sim

import (
	"fmt"
	"slices"
	"testing"
)

// twinQueue is what the twin scripts need of a scheduler; stop functions
// stand in for the two Handle types.
type twinQueue struct {
	atFunc   func(t Time, fn EventFunc, arg any) (stop func() bool)
	at       func(t Time, fn func()) (stop func() bool)
	every    func(offset, period Time, fn func()) (stop func() bool)
	step     func() bool
	runUntil func(deadline Time)
	clock    func() (now Time, seq uint64)
	// inspect runs fn on the Engine under test; the oracle leaves it nil.
	inspect func(fn func(e *Engine))
}

// twinOf adapts a scheduler's methods; H is its handle type.
func twinOf[H interface{ Stop() bool }](
	atFunc func(Time, EventFunc, any) H, at func(Time, func()) H, every func(Time, Time, func()) H,
	step func() bool, runUntil func(Time), clock func() (Time, uint64),
) twinQueue {
	return twinQueue{
		atFunc:   func(t Time, fn EventFunc, arg any) func() bool { return atFunc(t, fn, arg).Stop },
		at:       func(t Time, fn func()) func() bool { return at(t, fn).Stop },
		every:    func(o, p Time, fn func()) func() bool { return every(o, p, fn).Stop },
		step:     step,
		runUntil: runUntil,
		clock:    clock,
	}
}

func twinOfEngine(e *Engine) twinQueue {
	q := twinOf(e.AtFunc, e.At, e.Every, e.Step, e.RunUntil, func() (Time, uint64) { return e.now, e.seq })
	q.inspect = func(fn func(*Engine)) { fn(e) }
	return q
}

func twinOfRef(e *refEngine) twinQueue {
	return twinOf(e.AtFunc, e.At, e.Every, e.Step, e.RunUntil, func() (Time, uint64) { return e.now, e.seq })
}

// twinFired is one line of a run's log: an event firing (stopped false) or
// the outcome of a Stop call, stamped with the clock and the scheduler's
// sequence counter at that moment.
type twinFired struct {
	at      Time
	seq     uint64
	id      int
	stopped bool
}

// twinMix is the one-shot event population both scripts share. Every
// decision draws from the script's own RNG inside callbacks, so two
// schedulers stay in lockstep only while they fire the same events in the
// same order: each firing may schedule a follow-up at one of delays (until
// spawns run out) or stop a random earlier handle, queued or long fired.
type twinMix struct {
	q       twinQueue
	rng     *RNG
	log     []twinFired
	stops   []func() bool
	delays  []Time
	spawns  int
	nextID  int
	fireArg EventFunc
}

func newTwinMix(q twinQueue, rng *RNG, delays []Time, spawns int) *twinMix {
	m := &twinMix{q: q, rng: rng, delays: delays, spawns: spawns}
	m.fireArg = func(arg any) { m.fire(arg.(int)) }
	return m
}

func (m *twinMix) record(id int, stopped bool) {
	now, seq := m.q.clock()
	m.log = append(m.log, twinFired{at: now, seq: seq, id: id, stopped: stopped})
}

func (m *twinMix) fire(id int) {
	m.record(id, false)
	switch d := m.rng.IntN(10); {
	case d < 3 && m.spawns > 0:
		m.spawns--
		now, _ := m.q.clock()
		m.oneShot(now + m.delays[m.rng.IntN(len(m.delays))])
	case d == 3:
		m.stop(m.rng.IntN(len(m.stops)))
	}
}

func (m *twinMix) stop(id int) { m.record(id, m.stops[id]()) }

// oneShot schedules the next event id at t, alternating AtFunc and At.
func (m *twinMix) oneShot(t Time) {
	id := m.nextID
	m.nextID++
	if id%2 == 0 {
		m.stops = append(m.stops, m.q.atFunc(t, m.fireArg, id))
	} else {
		m.stops = append(m.stops, m.q.at(t, func() { m.fire(id) }))
	}
}

// twinScript drives q with a seeded mix and returns its log.
//
// The mix: 120k one-shot events (alternating AtFunc and At) on a coarse grid
// of instants, 40 % inside the wheel horizon and the rest straight to the heap
// — 75 equal-timestamp ties per instant, and enough slots pending at once to
// grow the slab through several hundred chunks; up to 60k follow-ups at a
// delay from zero to beyond the horizon; 48 periodic events with periods
// below the wheel granule up to past the horizon, a third of which stop
// themselves from inside their own callback and the rest of which are
// stopped while queued.
func twinScript(q twinQueue, seed uint64) []twinFired {
	rng := NewRNG(seed, 0x7717)
	m := newTwinMix(q, rng, []Time{0, 1, 100, 10 * Microsecond, Millisecond, Time(wheelSlots)<<granBits + 3*Millisecond}, 60_000)
	for i := 0; i < 120_000; i++ {
		m.oneShot(Time(rng.IntN(1600)) * 50 * Microsecond)
	}
	var periodic []func() bool
	for i := 0; i < 48; i++ {
		id := -1 - i
		period := []Time{3 * Microsecond, 700 * Microsecond, 9 * Millisecond, 41 * Millisecond}[i%4]
		left := 5 + i
		var stop func() bool
		stop = q.every(Time(rng.IntN(1000))*Microsecond, period, func() {
			m.record(id, false)
			if left--; left == 0 && id%3 == 0 {
				m.record(id, stop()) // a firing periodic event stops itself
			}
		})
		periodic = append(periodic, stop)
	}
	q.at(30*Millisecond, func() {
		for i, stop := range periodic {
			m.record(-1-i, stop()) // queued ticks, and the ones already self-stopped
		}
	})

	for q.step() {
	}
	return m.log
}

// Run paths the tie script must reach on the Engine; it names each one in
// its reached set when an inspection sees it.
const (
	pathIndexGrew     = "the run index grew while events were pending"
	pathCollision     = "an index collision opened a second run for one timestamp"
	pathInterleave    = "two runs of one timestamp interleave in seq, so pops merge them"
	pathHeadTombstone = "a tombstone at a run's head"
	pathMidTombstone  = "a tombstone behind a run's head"
	pathPeekReclaim   = "RunUntil's peek reclaimed head tombstones, emptying one run"
	pathDrainJoin     = "a wheel drain joined a run of far-pushed events"
	pathPushAfter     = "a direct push joined that run after the drain"
	pathRearmJoin     = "a periodic re-arm joined an existing run"
	pathReopen        = "a push at a just-emptied run's timestamp opened a fresh run"
)

// tieScript drives q with the tree's shape — many events on few timestamps —
// arranged so that every way an event joins, opens or leaves a run happens,
// and returns its log. On the Engine it inspects the runs at chosen moments
// and adds the paths it saw to reached.
//
// At time 0: ticks timestamps a grid step apart past the wheel horizon, each
// filled round-robin with ties events, so each push looks its run up in the
// index while more timestamps are pending than the index first holds, and
// one in twenty gets a colliding timestamp in the first round; the head of
// the first timestamp's run and some events behind other heads are stopped;
// a lone event is stopped before that region; one far event waits at
// drainAt, which an anchor at 3 ms brings inside the horizon and then
// schedules two more into the wheel behind; an anchor at 2 ms pushes at its
// own, just-emptied timestamp. A periodic event ticks every grid step from
// base, re-arming onto the tied timestamps. Then the events fire,
// each spawning a follow-up up to 8 grid steps ahead (an existing tied
// instant, often in the next wheel bucket) or stopping a random handle,
// first step by step, then through RunUntil in 3 µs strides, then to the end.
func tieScript(q twinQueue, seed uint64, reached map[string]bool) []twinFired {
	const (
		ticks = 3000
		ties  = 8
		grid  = 250 * Nanosecond
		base  = 40 * Millisecond
		lone  = base - 100*Microsecond
		// reopen is an instant the wheel holds only one event for.
		reopen = 2 * Millisecond
		// drainAt is past the horizon at 0 but inside it from 3 ms.
		drainAt = 36*Millisecond + 100
	)
	rng := NewRNG(seed, 0x71e5)
	m := newTwinMix(q, rng, []Time{0, grid, 2 * grid, 4 * grid, 8 * grid}, 20_000)
	inspect := func(path string, fn func(e *Engine) bool) {
		if q.inspect != nil {
			q.inspect(func(e *Engine) {
				if fn(e) {
					reached[path] = true
				}
			})
		}
	}

	// Past the grid, a timestamp sharing the top 16 hash bits of a grid
	// timestamp takes over its slot at any index size up to 2^16, so the
	// next push to the grid timestamp misses and opens a second run. These
	// pairs go in during the first round, in shuffled order, while the index
	// is still growing: a rebuild keeps the last of a slot's runs in heap
	// order, so it may point the grid timestamp back at its older run, whose
	// later appends then interleave in seq with the newer one.
	collide := func(k int) {
		t := base + Time(ticks)*grid + Time(k)
		for runHash(t)>>48 != runHash(base+Time(k)*grid)>>48 {
			t++
		}
		m.oneShot(t)
		m.oneShot(base + Time(k)*grid)
	}
	var ids [ties][ticks]int
	order := rng.Perm(ticks)
	for j := range ties {
		for k := range ticks {
			if j == 0 {
				k = order[k]
			}
			ids[j][k] = m.nextID
			m.oneShot(base + Time(k)*grid)
			if j == 0 && k%20 == 0 {
				collide(k)
			}
		}
	}
	m.stop(ids[0][0])
	for k := 1; k < ticks; k += 7 {
		m.stop(ids[1+k%(ties-1)][k])
	}
	m.oneShot(lone)
	m.stop(m.nextID - 1)
	m.oneShot(drainAt)
	q.at(3*Millisecond, func() {
		m.record(-1, false)
		m.oneShot(drainAt)
		m.oneShot(drainAt)
	})
	// reopen fires alone, emptying its run: its freed slot goes to an
	// event in the wheel, then a push at reopen must open a fresh run
	// rather than join the freed one through a stale index entry.
	q.at(reopen, func() {
		m.record(-3, false)
		m.oneShot(reopen + 5*Millisecond)
		m.oneShot(reopen)
		inspect(pathReopen, func(e *Engine) bool {
			c := e.runChains()[reopen]
			return len(c) == 1 && len(c[0]) == 1
		})
	})
	left := 400
	var stopTick func() bool
	stopTick = q.every(base, grid, func() {
		m.record(-2, false)
		if left--; left == 0 {
			m.record(-2, stopTick())
		}
	})

	// Every push so far carried the newest seq, so only an index miss can
	// have opened a second run for a timestamp.
	inspect(pathIndexGrew, func(e *Engine) bool { return len(e.index) > runIndexMin })
	inspect(pathCollision, func(e *Engine) bool {
		for _, chains := range e.runChains() {
			if len(chains) > 1 {
				return true
			}
		}
		return false
	})
	inspect(pathInterleave, func(e *Engine) bool {
		for _, chains := range e.runChains() {
			for _, a := range chains {
				for _, b := range chains {
					if ha, hb, ta := e.ev(a[0]).seq, e.ev(b[0]).seq, e.ev(a[len(a)-1]).seq; ha < hb && hb < ta {
						return true
					}
				}
			}
		}
		return false
	})
	inspect(pathHeadTombstone, func(e *Engine) bool {
		lone, first := e.runChains()[lone], e.runChains()[base]
		return len(lone) == 1 && e.ev(lone[0][0]).state == evCancelled &&
			slices.ContainsFunc(first, func(c []int32) bool { return e.ev(c[0]).state == evCancelled })
	})
	inspect(pathMidTombstone, func(e *Engine) bool {
		for _, chains := range e.runChains() {
			for _, c := range chains {
				if slices.ContainsFunc(c[1:], func(idx int32) bool { return e.ev(idx).state == evCancelled }) {
					return true
				}
			}
		}
		return false
	})

	q.runUntil(3 * Millisecond)
	q.runUntil(drainAt - 1)
	inspect(pathDrainJoin, func(e *Engine) bool {
		c := e.runChains()[drainAt]
		return len(c) == 1 && len(c[0]) == 3 && e.cursor > int64(drainAt)>>granBits
	})
	m.oneShot(drainAt)
	inspect(pathPushAfter, func(e *Engine) bool {
		c := e.runChains()[drainAt]
		return len(c) == 1 && len(c[0]) == 4
	})
	q.runUntil(base - 1)
	inspect(pathPeekReclaim, func(e *Engine) bool {
		chains := e.runChains()
		_, loneLeft := chains[lone]
		top := e.heap[0]
		return !loneLeft && top.at == base && e.ev(e.run(top.run).head).state == evArmed
	})

	// Step through the periodic event's span: after a step that re-armed
	// it onto a run, the tick holds the newest seq at that run's tail.
	var rearmed uint64
	for now, _ := q.clock(); now < base+Time(left+1)*grid && q.step(); now, _ = q.clock() {
		inspect(pathRearmJoin, func(e *Engine) bool {
			if e.m.Rearmed == rearmed {
				return false
			}
			rearmed = e.m.Rearmed
			for _, h := range e.heap {
				if rr := e.run(h.run); e.ev(rr.tail).seq == e.seq {
					return rr.head != rr.tail
				}
			}
			return false
		})
	}
	for t := base; t < base+ticks*grid; t += 3 * Microsecond {
		q.runUntil(t)
	}
	for q.step() {
	}
	return m.log
}

// runChains returns every queued run as its chain of slab indices, head
// first, keyed by timestamp. It panics if a run breaks the queue's
// invariants: one timestamp per run, ascending seq, the heap key equal to
// the head's, the tail where the chain ends.
func (e *Engine) runChains() map[Time][][]int32 {
	out := map[Time][][]int32{}
	for _, h := range e.heap {
		rr := e.run(h.run)
		var c []int32
		for idx := rr.head; idx >= 0; idx = e.ev(idx).next {
			ev := e.ev(idx)
			if ev.at != h.at || rr.at != h.at || (len(c) == 0) != (ev.seq == h.seq) ||
				len(c) > 0 && e.ev(c[len(c)-1]).seq >= ev.seq {
				panic(fmt.Sprintf("sim: run %d breaks its order at slot %d", h.run, idx))
			}
			c = append(c, idx)
		}
		if c[len(c)-1] != rr.tail {
			panic(fmt.Sprintf("sim: run %d ends at %d, tail says %d", h.run, c[len(c)-1], rr.tail))
		}
		out[h.at] = append(out[h.at], c)
	}
	return out
}

// TestEngineTwin drives Engine and the pre-change index-heap scheduler with
// the same seeded scripts: the fired sequences must be equal, and so must
// every field of Metrics — the benchmark's PFE digests hash that struct — so
// the run-merging heap, the chunked slab and the folded callback moved no
// pop, no counter and no high-water mark. The mix covers the wheel, the slab
// and periodic events; the tie script covers every run path.
func TestEngineTwin(t *testing.T) {
	twin := func(t *testing.T, seed uint64, script func(twinQueue, uint64) []twinFired) Metrics {
		e, ref := NewEngine(), newRefEngine()
		got := script(twinOfEngine(e), seed)
		want := script(twinOfRef(ref), seed)
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: logs diverge at line %d of %d/%d", seed, i, len(got), len(want))
		}
		m := e.Metrics()
		if m != ref.Metrics() {
			t.Fatalf("seed %d: metrics differ:\n got %+v\nwant %+v", seed, m, ref.Metrics())
		}
		return m
	}
	for _, seed := range []uint64{1, 7} {
		t.Run(fmt.Sprintf("mix/seed%d", seed), func(t *testing.T) {
			m := twin(t, seed, twinScript)
			if m.Executed < 100_000 || m.SlabPeak < 100*chunkSize || m.Cancelled == 0 || m.Rearmed == 0 ||
				m.WheelInserts == 0 || m.PeakHeap < 50_000 {
				t.Fatalf("seed %d: the mix missed a path it exists for: %+v", seed, m)
			}
		})
		t.Run(fmt.Sprintf("ties/seed%d", seed), func(t *testing.T) {
			reached := map[string]bool{}
			twin(t, seed, func(q twinQueue, seed uint64) []twinFired { return tieScript(q, seed, reached) })
			for _, path := range []string{pathIndexGrew, pathCollision, pathInterleave, pathHeadTombstone, pathMidTombstone,
				pathPeekReclaim, pathDrainJoin, pathPushAfter, pathRearmJoin, pathReopen} {
				if !reached[path] {
					t.Errorf("seed %d: the tie script missed a path it exists for: %s", seed, path)
				}
			}
		})
	}
}
