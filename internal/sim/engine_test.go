package sim

import (
	"testing"
	"unsafe"
)

// The slab's cache behaviour rests on an event being exactly one 64-byte
// line of its chunk; a field added to it must earn a second line knowingly.
func TestEventIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 64 {
		t.Fatalf("event is %d bytes, want 64", n)
	}
}

// Regression for the Every stop() leak: cancelling a periodic timer must
// remove its pending tick from the queue. The old engine left a dead tick
// queued, inflating Pending() and keeping Run() stepping.
func TestEveryStopRemovesPendingTick(t *testing.T) {
	e := NewEngine()
	fired := 0
	h := e.Every(5, 10, func() { fired++ })
	e.RunUntil(20) // fires at 5 and 15; next tick armed for 25
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (the armed tick)", e.Pending())
	}
	if !h.Stop() {
		t.Fatal("Stop() = false for an armed timer")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Stop, want 0", e.Pending())
	}
	if h.Active() {
		t.Fatal("handle still active after Stop")
	}
	// Run() must terminate immediately without executing the dead tick.
	e.Run()
	if fired != 2 {
		t.Fatalf("dead tick fired: %d firings", fired)
	}
	if h.Stop() {
		t.Fatal("second Stop() reported success")
	}
}

func TestStopOneShotEvent(t *testing.T) {
	e := NewEngine()
	ran := false
	h := e.At(10, func() { ran = true })
	if !h.Active() {
		t.Fatal("fresh handle not active")
	}
	if !h.Stop() {
		t.Fatal("Stop() = false for a pending event")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event executed")
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %v reclaiming a tombstone", e.Now())
	}
}

func TestStopAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	h := e.At(10, func() {})
	e.Run()
	if h.Stop() {
		t.Fatal("Stop() after firing reported success")
	}
	if h.Active() {
		t.Fatal("handle active after firing")
	}
}

// A handle must not cancel an unrelated event that reused its slab slot.
func TestStaleHandleDoesNotCancelReusedSlot(t *testing.T) {
	e := NewEngine()
	h1 := e.At(10, func() {})
	e.Run() // slot freed
	ran := false
	e.At(20, func() { ran = true }) // reuses the slot, new generation
	if h1.Stop() {
		t.Fatal("stale handle cancelled a reused slot")
	}
	e.Run()
	if !ran {
		t.Fatal("second event did not run")
	}
}

func TestCancelInsideCallback(t *testing.T) {
	e := NewEngine()
	var later Handle
	ran := false
	laterRan := false
	e.At(10, func() {
		ran = true
		later.Stop()
	})
	later = e.At(10, func() { laterRan = true }) // same timestamp, FIFO after
	e.Run()
	if !ran || laterRan {
		t.Fatalf("ran=%v laterRan=%v, want true/false", ran, laterRan)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

// A periodic callback stopping its own timer must suppress the re-arm.
func TestPeriodicSelfStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	var h Handle
	h = e.Every(1, 1, func() {
		fired++
		if fired == 3 {
			if !h.Stop() {
				t.Fatal("self-Stop() = false")
			}
		}
	})
	e.Run()
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

func TestAtFuncPassesArg(t *testing.T) {
	e := NewEngine()
	type payload struct{ hits int }
	p := &payload{}
	e.AtFunc(5, func(arg any) { arg.(*payload).hits++ }, p)
	e.AfterFunc(10, func(arg any) { arg.(*payload).hits += 10 }, p)
	e.Run()
	if p.hits != 11 {
		t.Fatalf("hits = %d, want 11", p.hits)
	}
}

func TestEveryFuncPeriodicArg(t *testing.T) {
	e := NewEngine()
	var times []Time
	h := e.EveryFunc(5, 10, func(arg any) {
		*(arg.(*[]Time)) = append(*(arg.(*[]Time)), e.Now())
	}, &times)
	e.RunUntil(40)
	h.Stop()
	want := []Time{5, 15, 25, 35}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Stop, want 0", e.Pending())
	}
}

// FIFO must hold across the wheel/heap split: events with one timestamp land
// on both structures depending on when they were scheduled relative to the
// cursor, and must still fire in scheduling order.
func TestFIFOAcrossWheelHeapBoundary(t *testing.T) {
	e := NewEngine()
	horizon := Time(wheelSlots) << granBits
	target := horizon + 5*granTime // beyond the initial window: heap
	var order []int
	e.At(target, func() { order = append(order, 0) })
	// Drag the cursor forward so target is now inside the window.
	e.At(horizon-granTime, func() {
		e.At(target, func() { order = append(order, 1) }) // wheel
	})
	e.At(target, func() { order = append(order, 2) }) // heap (scheduled early)
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("equal-timestamp events out of scheduling order: %v", order)
	}
}

// Events far past the horizon must overflow to the heap and still fire at the
// right times, interleaved with wheel-resident events.
func TestWheelHeapOverflowBoundary(t *testing.T) {
	e := NewEngine()
	horizon := Time(wheelSlots) << granBits
	var order []Time
	record := func() { order = append(order, e.Now()) }
	e.At(horizon-1, record)   // last bucket inside the window
	e.At(horizon, record)     // first bucket past it
	e.At(3*horizon+7, record) // far overflow
	e.At(granTime/2, record)  // near event
	m := e.Metrics()
	if m.WheelInserts == 0 || m.HeapInserts == 0 {
		t.Fatalf("expected a wheel/heap split, got %+v", m)
	}
	e.Run()
	want := []Time{granTime / 2, horizon - 1, horizon, 3*horizon + 7}
	if len(order) != len(want) {
		t.Fatalf("fired at %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired at %v, want %v", order, want)
		}
	}
}

// An event scheduled into a bucket the cursor already drained must not wait a
// full wheel revolution.
func TestScheduleIntoDrainedBucket(t *testing.T) {
	e := NewEngine()
	var second Time
	e.At(granTime+1, func() {
		// The cursor has passed bucket 0 and is mid-bucket-1; this event's
		// bucket is already drained (and "now" sits inside it).
		e.After(1, func() { second = e.Now() })
	})
	e.Run()
	if second != granTime+2 {
		t.Fatalf("re-scheduled event fired at %v, want %v", second, granTime+2)
	}
}

func TestRunUntilAdvancesClockAfterDrainWithTombstones(t *testing.T) {
	e := NewEngine()
	h := e.At(100, func() {})
	h.Stop()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("clock = %v, want 500", e.Now())
	}
	if e.Executed() != 0 {
		t.Fatalf("executed = %d, want 0", e.Executed())
	}
}

func TestMetricsCounters(t *testing.T) {
	e := NewEngine()
	h := e.At(10, func() {})
	e.At(20, func() {})
	h.Stop()
	e.Every(1, granTime, func() {})
	e.RunUntil(3 * granTime)
	m := e.Metrics()
	if m.Scheduled != 3 {
		t.Fatalf("Scheduled = %d, want 3", m.Scheduled)
	}
	if m.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", m.Cancelled)
	}
	if m.Rearmed < 2 {
		t.Fatalf("Rearmed = %d, want >= 2", m.Rearmed)
	}
	if m.Executed != e.Executed() {
		t.Fatalf("Executed mismatch: %d vs %d", m.Executed, e.Executed())
	}
	if m.SlabPeak == 0 || m.PeakPending == 0 {
		t.Fatalf("peaks not tracked: %+v", m)
	}
}

// Slab slots must recycle: a long run of transient events keeps the slab at
// its steady-state size instead of growing per event.
func TestSlabRecycles(t *testing.T) {
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 10_000 {
			e.After(granTime/4, tick)
		}
	}
	e.After(1, tick)
	e.Run()
	if m := e.Metrics(); m.SlabPeak > 4 {
		t.Fatalf("slab grew to %d slots for a 1-deep event chain", m.SlabPeak)
	}
}
