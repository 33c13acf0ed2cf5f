package sim

import (
	"slices"
	"testing"
)

// twinQueue is what the twin script needs of a scheduler; stop functions
// stand in for the two Handle types.
type twinQueue struct {
	atFunc func(t Time, fn EventFunc, arg any) (stop func() bool)
	at     func(t Time, fn func()) (stop func() bool)
	every  func(offset, period Time, fn func()) (stop func() bool)
	step   func() bool
	clock  func() (now Time, seq uint64)
}

// twinOf adapts a scheduler's methods; H is its handle type.
func twinOf[H interface{ Stop() bool }](
	atFunc func(Time, EventFunc, any) H, at func(Time, func()) H, every func(Time, Time, func()) H,
	step func() bool, clock func() (Time, uint64),
) twinQueue {
	return twinQueue{
		atFunc: func(t Time, fn EventFunc, arg any) func() bool { return atFunc(t, fn, arg).Stop },
		at:     func(t Time, fn func()) func() bool { return at(t, fn).Stop },
		every:  func(o, p Time, fn func()) func() bool { return every(o, p, fn).Stop },
		step:   step,
		clock:  clock,
	}
}

func twinOfEngine(e *Engine) twinQueue {
	return twinOf(e.AtFunc, e.At, e.Every, e.Step, func() (Time, uint64) { return e.now, e.seq })
}

func twinOfRef(e *refEngine) twinQueue {
	return twinOf(e.AtFunc, e.At, e.Every, e.Step, func() (Time, uint64) { return e.now, e.seq })
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

// twinScript drives q with a seeded mix and returns its log. Every decision
// draws from the script's own RNG inside callbacks, so two schedulers stay in
// lockstep only while they fire the same events in the same order.
//
// The mix: 120k one-shot events (alternating AtFunc and At) on a coarse grid
// of instants, 40 % inside the wheel horizon and the rest straight to the heap
// — 75 equal-timestamp ties per instant, and enough slots pending at once to
// grow the slab through several hundred chunks; each firing may schedule a follow-up at a delay from zero
// to beyond the horizon, or stop a random earlier handle, queued or long
// fired; 48 periodic events with periods below the wheel granule up to past
// the horizon, a third of which stop themselves from inside their own
// callback and the rest of which are stopped while queued.
func twinScript(q twinQueue, seed uint64) []twinFired {
	rng := NewRNG(seed, 0x7717)
	var log []twinFired
	var stops []func() bool
	record := func(id int, stopped bool) {
		now, seq := q.clock()
		log = append(log, twinFired{at: now, seq: seq, id: id, stopped: stopped})
	}
	delays := []Time{0, 1, 100, 10 * Microsecond, Millisecond, Time(wheelSlots)<<granBits + 3*Millisecond}
	nextID, spawned := 0, 0

	var oneShot func(t Time)
	fire := func(id int) {
		record(id, false)
		switch d := rng.IntN(10); {
		case d < 3 && spawned < 60_000:
			spawned++
			now, _ := q.clock()
			oneShot(now + delays[rng.IntN(len(delays))])
		case d == 3:
			i := rng.IntN(len(stops))
			record(i, stops[i]())
		}
	}
	fireArg := func(arg any) { fire(arg.(int)) }
	oneShot = func(t Time) {
		id := nextID
		nextID++
		if id%2 == 0 {
			stops = append(stops, q.atFunc(t, fireArg, id))
		} else {
			stops = append(stops, q.at(t, func() { fire(id) }))
		}
	}

	for i := 0; i < 120_000; i++ {
		oneShot(Time(rng.IntN(1600)) * 50 * Microsecond)
	}
	var periodic []func() bool
	for i := 0; i < 48; i++ {
		id := -1 - i
		period := []Time{3 * Microsecond, 700 * Microsecond, 9 * Millisecond, 41 * Millisecond}[i%4]
		left := 5 + i
		var stop func() bool
		stop = q.every(Time(rng.IntN(1000))*Microsecond, period, func() {
			record(id, false)
			if left--; left == 0 && id%3 == 0 {
				record(id, stop()) // a firing periodic event stops itself
			}
		})
		periodic = append(periodic, stop)
	}
	q.at(30*Millisecond, func() {
		for i, stop := range periodic {
			record(-1-i, stop()) // queued ticks, and the ones already self-stopped
		}
	})

	for q.step() {
	}
	return log
}

// TestEngineTwin drives Engine and the pre-change index-heap scheduler with
// the same seeded mix: the fired sequences must be equal, and so must every
// field of Metrics — the benchmark's PFE digests hash that struct — so the
// key-carrying heap, the chunked slab and the folded callback moved no pop,
// no counter and no high-water mark.
func TestEngineTwin(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		e, ref := NewEngine(), newRefEngine()
		got := twinScript(twinOfEngine(e), seed)
		want := twinScript(twinOfRef(ref), seed)
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
		if m.Executed < 100_000 || m.SlabPeak < 100*chunkSize || m.Cancelled == 0 || m.Rearmed == 0 ||
			m.WheelInserts == 0 || m.PeakHeap < 50_000 {
			t.Fatalf("seed %d: the mix missed a path it exists for: %+v", seed, m)
		}
	}
}
