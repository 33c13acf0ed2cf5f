package faults

import (
	"testing"

	"github.com/trioml/triogo/internal/sim"
)

// TestNilGating: a nil plan and an inert config must hand out nil injectors
// for every layer, so consumers stay on their no-fault fast paths.
func TestNilGating(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Link(0) != nil || nilPlan.PFE(0) != nil || nilPlan.Mem(0) != nil ||
		nilPlan.Hostagg() != nil {
		t.Fatal("nil plan must return nil injectors")
	}
	p := NewPlan(1, Config{})
	if p.Link(0) != nil {
		t.Error("inert link config returned an injector")
	}
	if p.PFE(0) != nil {
		t.Error("inert PFE config returned an injector")
	}
	if p.Mem(0) != nil {
		t.Error("inert mem config returned an injector")
	}
	if p.Hostagg() != nil {
		t.Error("inert hostagg config returned an injector")
	}
}

// verdictTrace collects a link injector's decisions over n frames.
func verdictTrace(f *LinkInjector, n int, step sim.Time) []LinkVerdict {
	out := make([]LinkVerdict, n)
	for i := range out {
		out[i] = f.Decide(sim.Time(i)*step, 12000)
	}
	return out
}

// TestLinkDeterminism: same seed and link id reproduce the exact verdict
// sequence; a different link id gives an uncorrelated stream.
func TestLinkDeterminism(t *testing.T) {
	cfg := Config{Link: LinkConfig{CorruptProb: 0.1, DupProb: 0.1, ReorderProb: 0.1}}
	a := verdictTrace(NewPlan(7, cfg).Link(3), 500, sim.Microsecond)
	b := verdictTrace(NewPlan(7, cfg).Link(3), 500, sim.Microsecond)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d verdict diverged across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := verdictTrace(NewPlan(7, cfg).Link(4), 500, sim.Microsecond)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("distinct link ids produced identical fault streams")
	}
}

// TestFlapWindowsConsumeNoDraws: frames dropped inside a flap window must
// not advance the RNG, so the sequence of verdicts handed to frames that DO
// traverse the link is identical to a flap-free run of the same stream —
// the fault schedule is a pure function of (stream, delivered-frame index).
func TestFlapWindowsConsumeNoDraws(t *testing.T) {
	base := Config{Link: LinkConfig{CorruptProb: 0.2, DupProb: 0.2, ReorderProb: 0.2}}
	flapped := base
	flapped.Link.Flaps = []Window{{Start: 100 * sim.Microsecond, End: 200 * sim.Microsecond}}

	plain := verdictTrace(NewPlan(9, base).Link(0), 300, sim.Microsecond)
	flap := verdictTrace(NewPlan(9, flapped).Link(0), 300, sim.Microsecond)

	drops, delivered := 0, 0
	for i := range flap {
		now := sim.Time(i) * sim.Microsecond
		inWindow := now >= 100*sim.Microsecond && now < 200*sim.Microsecond
		if flap[i].Drop != inWindow {
			t.Fatalf("frame %d drop=%v, want %v", i, flap[i].Drop, inWindow)
		}
		if inWindow {
			drops++
			continue
		}
		if flap[i] != plain[delivered] {
			t.Fatalf("delivered frame %d verdict shifted by the flap window: %+v vs %+v",
				delivered, flap[i], plain[delivered])
		}
		delivered++
	}
	if drops == 0 {
		t.Fatal("no frames landed inside the flap window")
	}
	if got := NewPlan(9, Config{Link: LinkConfig{Flaps: flapped.Link.Flaps}}).Link(0); got == nil {
		t.Fatal("flap-only config must still enable the injector")
	}
}

// TestCountersAndStats: injector firings are visible through Plan.Stats.
func TestCountersAndStats(t *testing.T) {
	p := NewPlan(3, Config{
		Link:    LinkConfig{CorruptProb: 1},
		PFE:     PFEConfig{StallProb: 1},
		Mem:     MemConfig{BankErrorProb: 1},
		Hostagg: HostaggConfig{RecvDropProb: 1, CrashEvery: 2},
	})
	v := p.Link(0).Decide(0, 800)
	if v.CorruptBit < 0 || v.CorruptBit >= 800 {
		t.Fatalf("corrupt bit %d outside frame", v.CorruptBit)
	}
	if d := p.PFE(0).Stall(); d <= 0 {
		t.Fatal("certain stall returned zero duration")
	}
	if c := p.Mem(0).BankError(); c != retryCycles {
		t.Fatalf("bank error cycles = %d, want %d", c, retryCycles)
	}
	tab := p.Hostagg().Table()
	if !tab.DropRecv() {
		t.Fatal("certain recv drop did not fire")
	}
	if tab.CrashNow() {
		t.Fatal("crash fired before CrashEvery contributions")
	}
	if !tab.CrashNow() {
		t.Fatal("crash did not fire at CrashEvery contributions")
	}
	st := p.Stats()
	if st.LinkCorruptions != 1 || st.PPEStalls != 1 || st.MemBankErrors != 1 ||
		st.HostaggRecvDrops != 1 || st.HostaggCrashes != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.PPEStallNs == 0 {
		t.Fatal("stall duration not accumulated")
	}
}

// TestLinkDecideZeroAlloc asserts the verdict path allocates nothing, even
// with every fault family armed.
func TestLinkDecideZeroAlloc(t *testing.T) {
	p := NewPlan(1, Config{Link: LinkConfig{
		CorruptProb: 0.5, DupProb: 0.5, ReorderProb: 0.5,
		Flaps: []Window{{Start: 0, End: sim.Millisecond}},
	}})
	f := p.Link(0)
	var now sim.Time
	if n := testing.AllocsPerRun(1000, func() {
		_ = f.Decide(now, 12000)
		now += sim.Microsecond
	}); n != 0 {
		t.Fatalf("Decide allocated %.1f times per call", n)
	}
}

// BenchmarkLinkDecide asserts the verdict path allocates nothing.
func BenchmarkLinkDecide(b *testing.B) {
	p := NewPlan(1, Config{Link: LinkConfig{
		CorruptProb: 0.01, DupProb: 0.01, ReorderProb: 0.01,
		Flaps: []Window{{Start: 0, End: sim.Millisecond}},
	}})
	f := p.Link(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.Decide(sim.Time(i), 12000)
	}
}

// TestLinkStreamsPartitionPure pins the property the partitioned simulator
// (sim.Cluster) leans on: a link injector's verdict schedule is a pure
// function of (plan seed, link id). Neither the order injectors are created
// in, nor sibling draws, nor which cluster partition's engine the consumer
// lives on can shift it — so P>1 runs replay exactly the P=1 fault schedule.
func TestLinkStreamsPartitionPure(t *testing.T) {
	cfg := Config{Link: LinkConfig{CorruptProb: 0.3, DupProb: 0.2, ReorderProb: 0.1}}
	schedule := func(f *LinkInjector) []LinkVerdict {
		out := make([]LinkVerdict, 64)
		for i := range out {
			out[i] = f.Decide(sim.Time(i)*sim.Microsecond, 1500*8)
		}
		return out
	}

	// Reference: plan with links created in id order, drained one by one.
	ref := make(map[uint64][]LinkVerdict)
	pa := NewPlan(11, cfg)
	for id := uint64(0); id < 4; id++ {
		ref[id] = schedule(pa.Link(id))
	}

	// Same seed, links created in reverse and drawn interleaved — as when a
	// partitioned rig constructs per-partition topology slices. The cluster
	// itself is irrelevant to the draw (injectors never see an engine), which
	// is the point: placement cannot perturb the schedule.
	c := sim.NewCluster(2)
	_ = c.Engine(0)
	pb := NewPlan(11, cfg)
	injs := make(map[uint64]*LinkInjector)
	for id := int64(3); id >= 0; id-- {
		injs[uint64(id)] = pb.Link(uint64(id))
	}
	got := make(map[uint64][]LinkVerdict)
	for i := 0; i < 64; i++ {
		for id := uint64(0); id < 4; id++ {
			got[id] = append(got[id], injs[id].Decide(sim.Time(i)*sim.Microsecond, 1500*8))
		}
	}

	for id := uint64(0); id < 4; id++ {
		for i := range ref[id] {
			if got[id][i] != ref[id][i] {
				t.Fatalf("link %d verdict %d: %+v, want %+v", id, i, got[id][i], ref[id][i])
			}
		}
	}
}
