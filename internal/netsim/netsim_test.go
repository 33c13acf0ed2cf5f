package netsim

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/sim"
)

func TestLinkSerializationAndPropagation(t *testing.T) {
	eng := sim.NewEngine()
	var at sim.Time
	l := NewLink(eng, LinkConfig{Bandwidth: 100_000_000_000, Propagation: 500 * sim.Nanosecond},
		func(f []byte, a sim.Time) { at = a })
	l.Send(make([]byte, 1250)) // 100 ns at 100 Gbps
	eng.Run()
	if at != 600*sim.Nanosecond {
		t.Fatalf("arrival = %v, want 600 ns", at)
	}
}

func TestLinkFIFOQueueing(t *testing.T) {
	eng := sim.NewEngine()
	var arrivals []sim.Time
	l := NewLink(eng, LinkConfig{Bandwidth: 100_000_000_000, Propagation: 0},
		func(f []byte, a sim.Time) { arrivals = append(arrivals, a) })
	for i := 0; i < 3; i++ {
		l.Send(make([]byte, 12500)) // 1 µs each
	}
	if !l.Busy() {
		t.Fatal("link should be busy")
	}
	eng.Run()
	want := []sim.Time{1 * sim.Microsecond, 2 * sim.Microsecond, 3 * sim.Microsecond}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrival %d = %v, want %v", i, arrivals[i], want[i])
		}
	}
	if l.Frames != 3 || l.Bytes != 37500 {
		t.Fatalf("counters = %d frames %d bytes", l.Frames, l.Bytes)
	}
}

func TestLinkIdleGapsDoNotAccumulateCredit(t *testing.T) {
	eng := sim.NewEngine()
	var arrivals []sim.Time
	l := NewLink(eng, LinkConfig{Bandwidth: 100_000_000_000, Propagation: 0},
		func(f []byte, a sim.Time) { arrivals = append(arrivals, a) })
	l.Send(make([]byte, 1250))
	eng.RunUntil(10 * sim.Microsecond)
	l.Send(make([]byte, 1250))
	eng.Run()
	if arrivals[1] != 10*sim.Microsecond+100*sim.Nanosecond {
		t.Fatalf("second arrival = %v", arrivals[1])
	}
}

// dropPattern sends n frames over a link built with cfg and returns the
// indices of the frames the native loss stream dropped.
func dropPattern(cfg LinkConfig, n int) []int {
	eng := sim.NewEngine()
	l := NewLink(eng, cfg, func([]byte, sim.Time) {})
	var drops []int
	for i := 0; i < n; i++ {
		before := l.Dropped
		l.Send(make([]byte, 1250))
		if l.Dropped != before {
			drops = append(drops, i)
		}
	}
	eng.Run()
	return drops
}

// TestLossPatternPinned is the determinism regression test for the loss
// stream: for a fixed LossSeed the exact set of dropped frame indices is part
// of the package's contract (golden experiments and the chaos oracle depend
// on it), so the pattern is pinned literally. It must reproduce across runs
// and must not shift when the surrounding topology changes — links draw from
// per-seed PCG streams, not a shared RNG, so building more shards/links/
// injectors around a link cannot perturb its schedule.
func TestLossPatternPinned(t *testing.T) {
	cfg := LinkConfig{LossProb: 0.02, LossSeed: 42}
	want := []int{4, 49, 50, 52, 65, 96, 105, 301, 303, 332, 345, 359, 371}

	check := func(label string, got []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d drops, want %d: %v", label, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: drop %d at frame %d, want %d", label, i, got[i], want[i])
			}
		}
	}
	check("run 1", dropPattern(cfg, 400))
	check("run 2", dropPattern(cfg, 400))

	// Same link embedded in progressively larger topologies (more sibling
	// links with their own loss streams and injectors, as when the hostagg
	// shard count changes): the pattern must not move.
	for _, shards := range []int{1, 4, 16} {
		eng := sim.NewEngine()
		plan := faults.NewPlan(7, faults.Config{Link: faults.LinkConfig{CorruptProb: 0.5}})
		for s := 0; s < shards; s++ {
			sibling := NewLink(eng, LinkConfig{
				LossProb: 0.1, LossSeed: uint64(s) * 13,
				Faults: plan.Link(uint64(s)),
			}, func([]byte, sim.Time) {})
			sibling.Send(make([]byte, 1250))
		}
		l := NewLink(eng, cfg, func([]byte, sim.Time) {})
		var drops []int
		for i := 0; i < 400; i++ {
			before := l.Dropped
			l.Send(make([]byte, 1250))
			if l.Dropped != before {
				drops = append(drops, i)
			}
		}
		eng.Run()
		check("shard neighbourhood", drops)
	}
}

// TestLinkFaultWiring exercises the LinkConfig.Faults hookup: corruption
// flips exactly one bit in a private copy, duplication delivers twice, flap
// windows drop without touching the loss counter, and every outcome shows in
// the link's injected-fault counters.
func TestLinkFaultWiring(t *testing.T) {
	t.Run("corrupt", func(t *testing.T) {
		eng := sim.NewEngine()
		plan := faults.NewPlan(5, faults.Config{Link: faults.LinkConfig{CorruptProb: 1}})
		var got []byte
		l := NewLink(eng, LinkConfig{Faults: plan.Link(0)}, func(f []byte, _ sim.Time) { got = f })
		sent := bytes.Repeat([]byte{0xAA}, 64)
		orig := append([]byte(nil), sent...)
		l.Send(sent)
		eng.Run()
		if l.Faults().LinkCorruptions != 1 {
			t.Fatalf("Corrupted = %d", l.Faults().LinkCorruptions)
		}
		if !bytes.Equal(sent, orig) {
			t.Fatal("corruption mutated the caller's buffer")
		}
		diff := 0
		for i := range got {
			for b := 0; b < 8; b++ {
				if (got[i]^orig[i])&(1<<b) != 0 {
					diff++
				}
			}
		}
		if diff != 1 {
			t.Fatalf("corrupted copy differs in %d bits, want exactly 1", diff)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		eng := sim.NewEngine()
		plan := faults.NewPlan(5, faults.Config{Link: faults.LinkConfig{DupProb: 1}})
		arrivals := 0
		l := NewLink(eng, LinkConfig{Faults: plan.Link(0)}, func([]byte, sim.Time) { arrivals++ })
		l.Send(make([]byte, 64))
		eng.Run()
		if arrivals != 2 || l.Faults().LinkDuplicates != 1 {
			t.Fatalf("arrivals = %d, Duplicated = %d", arrivals, l.Faults().LinkDuplicates)
		}
	})
	t.Run("reorder", func(t *testing.T) {
		eng := sim.NewEngine()
		plan := faults.NewPlan(5, faults.Config{Link: faults.LinkConfig{ReorderProb: 1}})
		var at sim.Time
		l := NewLink(eng, LinkConfig{Bandwidth: 100_000_000_000, Faults: plan.Link(0)},
			func(_ []byte, a sim.Time) { at = a })
		l.Send(make([]byte, 1250)) // 100 ns serialization, no propagation
		eng.Run()
		if l.Faults().LinkReorders != 1 {
			t.Fatalf("Reordered = %d", l.Faults().LinkReorders)
		}
		if at <= 100*sim.Nanosecond {
			t.Fatalf("reordered frame arrived at %v with no extra delay", at)
		}
	})
	t.Run("flap", func(t *testing.T) {
		eng := sim.NewEngine()
		plan := faults.NewPlan(5, faults.Config{Link: faults.LinkConfig{
			Flaps: []faults.Window{{Start: 0, End: sim.Millisecond}},
		}})
		arrivals := 0
		l := NewLink(eng, LinkConfig{Faults: plan.Link(0)}, func([]byte, sim.Time) { arrivals++ })
		l.Send(make([]byte, 64))
		eng.Run()
		if arrivals != 0 || l.Faults().LinkFlapDrops != 1 || l.Dropped != 0 {
			t.Fatalf("arrivals = %d, FlapDropped = %d, Dropped = %d", arrivals, l.Faults().LinkFlapDrops, l.Dropped)
		}
	})
}

// The link keeps no per-frame event record: an arrival event takes the oldest
// in-flight frame. Every frame must therefore still reach the receiver at its
// own instant — its fault-free arrival, or that plus the duplicate or reorder
// delay — through bursts that keep the link backlogged for hundreds of frames
// (the in-flight queue reclaims its delivered prefix), gaps that drain it, and
// duplicated and reordered frames overtaking the FIFO ones.
func TestLinkDeliversEachFrameAtItsOwnInstant(t *testing.T) {
	const (
		frames = 5000
		prop   = 500 * sim.Nanosecond
		dup    = sim.Microsecond     // the fault plan's duplicate delay
		reord  = 5 * sim.Microsecond // and its reorder delay
	)
	eng := sim.NewEngine()
	rng := sim.NewRNG(4, 0xf1f0)
	plan := faults.NewPlan(11, faults.Config{Link: faults.LinkConfig{DupProb: 0.1, ReorderProb: 0.1}})
	fifoAt := make([]sim.Time, frames) // fault-free arrival instant per tag
	seen := make([]int, frames)
	arrivals := 0
	l := NewLink(eng, LinkConfig{Bandwidth: 100_000_000_000, Propagation: prop, Faults: plan.Link(0)},
		func(f []byte, at sim.Time) {
			tag := int(f[0])<<8 | int(f[1])
			if d := at - fifoAt[tag]; d != 0 && d != dup && d != reord {
				t.Fatalf("frame %d (%d bytes) arrived at %v, %v after its fault-free instant %v", tag, len(f), at, d, fifoAt[tag])
			}
			seen[tag]++
			arrivals++
		})
	var free sim.Time // the test's own copy of the serialization clock
	tag := 0
	var burst func()
	burst = func() {
		for n := 1 + rng.IntN(300); n > 0 && tag < frames; n-- {
			f := make([]byte, 125*(1+rng.IntN(12))) // 10 ns per 125 bytes: no sub-ns remainder
			f[0], f[1] = byte(tag>>8), byte(tag)
			free = max(free, eng.Now()) + sim.Time(len(f)/125*10)
			fifoAt[tag] = free + prop
			tag++
			l.Send(f)
		}
		if tag < frames {
			// Nearly always before the backlog clears: the queue rarely runs empty.
			eng.After(rng.UniformTime(0, (free-eng.Now())*21/20+sim.Nanosecond), burst)
		}
	}
	burst()
	eng.Run()
	if arrivals != frames+int(l.Faults().LinkDuplicates) || l.Faults().LinkDuplicates == 0 || l.Faults().LinkReorders == 0 {
		t.Fatalf("%d arrivals of %d frames, %d duplicated, %d reordered", arrivals, frames, l.Faults().LinkDuplicates, l.Faults().LinkReorders)
	}
	for tag, n := range seen {
		if n == 0 {
			t.Fatalf("frame %d never arrived", tag)
		}
	}
	if len(l.inflight) != 0 || cap(l.inflight) > 1024 {
		t.Fatalf("in-flight queue ends at len %d cap %d: it should drain and stay bounded by the deepest backlog", len(l.inflight), cap(l.inflight))
	}
}

// A 10^5-worker tree builds 2×10^5 links, so a Link's size is set-up time and
// resident memory: it must stay in the 96-byte allocation class. What links of
// one kind share (engine, rate, delay, receiver) sits in their kind, and what
// only lossy, faulty or partition-crossing links need sits behind hz.
func TestLinkStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(Link{}); n > 96 {
		t.Fatalf("Link is %d bytes, want <= 96", n)
	}
}

func TestDefaultsApplied(t *testing.T) {
	eng := sim.NewEngine()
	var at sim.Time
	l := NewLink(eng, LinkConfig{}, func(f []byte, a sim.Time) { at = a })
	l.Send(make([]byte, 12500)) // 1 µs at default 100 Gbps, zero propagation
	eng.Run()
	if at != 1*sim.Microsecond {
		t.Fatalf("arrival = %v", at)
	}
}

// TestLinkBurstSerializationExact is the remainder-carry regression test: a
// burst of N small frames must occupy the link for exactly
// ceil(N*bytes*8*1e9/bw) ns. The old floor-per-frame accounting lost up to a
// nanosecond of serialization per frame (~0.96 ns for 187 bytes at 100 Gbps),
// under-charging long bursts by tens of nanoseconds.
func TestLinkBurstSerializationExact(t *testing.T) {
	const bw = 100_000_000_000
	const frameBytes = 187 // 14.96 ns at 100 Gbps: worst-case truncation
	for _, n := range []int{1, 3, 25, 100} {
		eng := sim.NewEngine()
		l := NewLink(eng, LinkConfig{Bandwidth: bw, Propagation: 0}, func([]byte, sim.Time) {})
		for i := 0; i < n; i++ {
			l.Send(make([]byte, frameBytes))
		}
		bits := uint64(n) * frameBytes * 8 * uint64(sim.Second)
		want := sim.Time((bits + bw - 1) / bw) // ceil
		if got := l.FreeAt(); got != want {
			t.Fatalf("n=%d: FreeAt = %d ns, want ceil(%d*%d*8e9/%d) = %d ns",
				n, got, n, frameBytes, bw, want)
		}
		eng.Run()
	}
}

// TestLinkSingleFrameKeepsFloorTiming pins golden compatibility: a lone frame
// on an idle link still departs at the floor of its serialization time (the
// remainder is carried, not rounded up), so window=1 rigs are bit-identical
// to the pre-carry engine.
func TestLinkSingleFrameKeepsFloorTiming(t *testing.T) {
	eng := sim.NewEngine()
	var at sim.Time
	l := NewLink(eng, LinkConfig{Bandwidth: 100_000_000_000, Propagation: 0},
		func(_ []byte, a sim.Time) { at = a })
	l.Send(make([]byte, 187)) // 14.96 ns: floor departs at 14 ns
	if !l.Busy() {
		t.Fatal("link with a carried remainder must still report busy")
	}
	eng.Run()
	if at != 14*sim.Nanosecond {
		t.Fatalf("arrival = %v, want 14 ns (floor)", at)
	}
	if l.FreeAt() != 15*sim.Nanosecond {
		t.Fatalf("FreeAt = %v, want 15 ns (ceil)", l.FreeAt())
	}
	// An idle gap resets the fractional credit: the next lone frame gets the
	// same floor timing, not 14.96+0.96 rounded differently.
	l.Send(make([]byte, 187))
	eng.Run()
	if at != eng.Now() || l.freeRem == 0 {
		t.Fatalf("second lone frame: arrival %v now %v rem %d", at, eng.Now(), l.freeRem)
	}
}

// TestDuplicateOfReorderedFrameNotCompounded is the reorder+duplicate
// regression test: the duplicate's offset applies to the fault-free arrival,
// not on top of the reorder's ExtraDelay (the old bug delivered it at
// serialization + reorder delay + duplicate delay).
func TestDuplicateOfReorderedFrameNotCompounded(t *testing.T) {
	pattern := func() []sim.Time {
		eng := sim.NewEngine()
		plan := faults.NewPlan(9, faults.Config{Link: faults.LinkConfig{DupProb: 1, ReorderProb: 1}})
		var arrivals []sim.Time
		l := NewLink(eng, LinkConfig{Bandwidth: 100_000_000_000, Faults: plan.Link(0)},
			func(_ []byte, a sim.Time) { arrivals = append(arrivals, a) })
		l.Send(make([]byte, 1250)) // fault-free arrival: 100 ns
		eng.Run()
		if l.Faults().LinkDuplicates != 1 || l.Faults().LinkReorders != 1 {
			t.Fatalf("Duplicated=%d Reordered=%d, want both 1", l.Faults().LinkDuplicates, l.Faults().LinkReorders)
		}
		return arrivals
	}
	got := pattern()
	// Duplicate delay 1 µs, reorder delay 5 µs. Duplicate lands at
	// 100ns + 1µs, the reordered original at 100ns + 5µs; compounding would
	// put the duplicate at 6100 ns.
	want := []sim.Time{1100 * sim.Nanosecond, 5100 * sim.Nanosecond}
	if len(got) != len(want) {
		t.Fatalf("arrivals %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	// Determinism regression: the schedule is a pure function of the seed.
	again := pattern()
	for i := range got {
		if again[i] != got[i] {
			t.Fatalf("rerun diverged: %v vs %v", again, got)
		}
	}
}

// TestLinkBetweenCrossPartition wires a link across a two-partition cluster
// and checks the arrival executes in the destination partition at exactly
// serialization + propagation, with the frame contents intact (the crossing
// detaches the sender's buffer) and the link's port tag.
func TestLinkBetweenCrossPartition(t *testing.T) {
	c := sim.NewCluster(2)
	src, dst := c.Engine(0), c.Engine(1)
	var at sim.Time
	var got []byte
	var onPart, port int
	rx := NewSink(dst, func(p int, f []byte, a sim.Time) { port, at, got, onPart = p, a, f, dst.Partition() })
	l := rx.Link(src, LinkConfig{Bandwidth: 100_000_000_000, Propagation: 500 * sim.Nanosecond}, 7)
	if c.Lookahead() != 500*sim.Nanosecond {
		t.Fatalf("lookahead = %v, want the link's propagation", c.Lookahead())
	}
	frame := []byte{1, 2, 3, 4}
	l.Send(frame)
	frame[0] = 0xFF // sender reuses its buffer; the crossing copy must not see it
	c.Run(nil, sim.Second)
	if at != 500*sim.Nanosecond || onPart != 1 || port != 7 {
		t.Fatalf("arrival at %v on partition %d, port %d", at, onPart, port)
	}
	if len(got) != 4 || got[0] != 1 {
		t.Fatalf("crossing aliased the sender's buffer: % x", got)
	}
	if dst.Now() < at {
		t.Fatalf("destination clock %v behind arrival %v", dst.Now(), at)
	}
	// Same-partition and same-engine forms stay local (no cluster plumbing).
	if ll := NewSink(src, nil).Link(src, DefaultLinkConfig(), 0); ll.hz != nil {
		t.Fatal("a same-engine link attached cluster plumbing")
	}
}

// TestSinkLinksKeepTheirHazards builds an uplink-downlink pair into one sink
// the way a cable does — uplink first, each with its own loss seed and fault
// stream — and checks each link drops and faults frame for frame as a lone
// link with its config does: sharing a kind must not share, swap or lose the
// per-link loss and fault streams. A plain link carries no hazards and costs
// one allocation once its kind exists.
func TestSinkLinksKeepTheirHazards(t *testing.T) {
	faulty := faults.Config{Link: faults.LinkConfig{CorruptProb: 0.2, DupProb: 0.2, ReorderProb: 0.2}}
	cfg := func(plan *faults.Plan, id uint64) LinkConfig {
		c := DefaultLinkConfig()
		c.LossProb, c.LossSeed, c.Faults = 0.1, 100+id, plan.Link(id)
		return c
	}
	// outcomes sends n frames and records, after each, the link's loss and
	// fault counters.
	type outcome struct {
		dropped uint64
		faults  faults.Stats
	}
	outcomes := func(eng *sim.Engine, l *Link, n int) []outcome {
		var got []outcome
		for i := 0; i < n; i++ {
			l.Send(make([]byte, 64))
			got = append(got, outcome{l.Dropped, l.Faults()})
		}
		eng.Run()
		return got
	}
	const n = 300
	eng := sim.NewEngine()
	plan := faults.NewPlan(3, faulty)
	delivered := [2]int{}
	rx := NewSink(eng, func(port int, _ []byte, _ sim.Time) { delivered[port]++ })
	up := rx.Link(eng, cfg(plan, 0), 0)
	down := rx.Link(eng, cfg(plan, 1), 1)
	if up.k != down.k {
		t.Fatal("two links of one kind into one sink did not share it")
	}
	pair := [2][]outcome{outcomes(eng, up, n), outcomes(eng, down, n)}
	for id, l := range []*Link{up, down} {
		eng := sim.NewEngine()
		lone := NewLink(eng, cfg(faults.NewPlan(3, faulty), uint64(id)), func([]byte, sim.Time) {})
		want := outcomes(eng, lone, n)
		if !reflect.DeepEqual(pair[id], want) {
			t.Fatalf("link %d: its drops and faults differ from a lone link with its config", id)
		}
		st := l.Faults()
		if l.Dropped == 0 || st.LinkCorruptions == 0 || st.LinkDuplicates == 0 || st.LinkReorders == 0 {
			t.Fatalf("link %d dropped %d and faulted %+v: every hazard should fire in %d frames", id, l.Dropped, st, n)
		}
		if want := n - int(l.Dropped) + int(st.LinkDuplicates); delivered[id] != want {
			t.Fatalf("port %d got %d frames, want %d", id, delivered[id], want)
		}
	}
	if reflect.DeepEqual(pair[0], pair[1]) {
		t.Fatal("uplink and downlink drew the same drops and faults: the streams are shared")
	}

	plain := rx.Link(eng, DefaultLinkConfig(), 2)
	if plain.hz != nil || plain.Faults() != (faults.Stats{}) {
		t.Fatal("a lossless, fault-free local link carries hazards")
	}
	if a := testing.AllocsPerRun(10, func() { rx.Link(eng, DefaultLinkConfig(), 2) }); a != 1 {
		t.Fatalf("a plain link of an existing kind makes %.0f allocations, want 1", a)
	}
}
