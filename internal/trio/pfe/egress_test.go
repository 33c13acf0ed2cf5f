package pfe

import (
	"slices"
	"testing"

	"github.com/trioml/triogo/internal/sim"
)

// refEgress is PFE egress as it was before a multicast became one record:
// emitAll books every copy on its own and gives each its own delivery event
// record, recycled through a free list. It is the oracle for the shared
// delivery record.
type refEgress struct {
	p       *PFE
	outFree *refOut
}

type refOut struct {
	o     *refEgress
	port  int
	frame []byte
	at    sim.Time
	next  *refOut
}

func (o *refEgress) emitAll(emits []emit) {
	for _, e := range emits {
		ports := e.ports
		if ports == nil {
			ports = []int{e.port}
		}
		for _, port := range ports {
			o.p.stats.Emitted++
			o.egress(port, e.frame, o.p.Engine.Now())
		}
	}
}

func (o *refEgress) egress(port int, frame []byte, ready sim.Time) {
	p := o.p
	ser := sim.Time(uint64(len(frame)) * 8 * uint64(sim.Second) / p.Cfg.PortBandwidth)
	ps := &p.ports[port]
	start := ready
	if ps.freeAt > start {
		start = ps.freeAt
	}
	depart := start + ser
	ps.freeAt = depart
	ps.frames++
	ps.bytes += uint64(len(frame))
	ps.busy += ser
	p.stats.BytesOut += uint64(len(frame))
	if p.out != nil {
		e := o.outFree
		if e == nil {
			e = &refOut{}
		} else {
			o.outFree = e.next
			e.next = nil
		}
		e.o, e.port, e.frame, e.at = o, port, frame, depart
		p.Engine.AtFunc(depart, refDeliverOut, e)
	}
}

func refDeliverOut(arg any) {
	e := arg.(*refOut)
	o, port, frame, at := e.o, e.port, e.frame, e.at
	e.frame = nil
	e.next = o.outFree
	o.outFree = e
	o.p.out(port, frame, at)
}

// egressed is one delivered copy; frame is the first byte's address, so two
// copies compare equal only if they are the same frame.
type egressed struct {
	at    sim.Time
	port  int
	frame *byte
}

// egressBatch is the emits one thread completion hands to egress at an
// instant.
type egressBatch struct {
	at    sim.Time
	emits []emit
}

// egressScript returns batches that exercise the shared record where its
// hand-out order matters. The first ones are fixed: 9000-byte unicasts
// backlog ports 2 and 5, then a multicast lists those ports between idle
// ones (so departures are not monotone in list order), a unicast on backlogged
// port 2 follows it at the same instant, and a second multicast repeats a
// port and ends on port 2 again. Random batches follow: unicasts and
// multicasts over random lists (repeats allowed) with frames from 64 to 9000
// bytes, at random instants.
func egressScript(seed uint64) []egressBatch {
	big := frameOfSize(9000, 0xb)
	small := frameOfSize(200, 0x5)
	mid := frameOfSize(1500, 0x6)
	script := []egressBatch{
		{0, []emit{{port: 2, frame: big}, {port: 5, frame: big}}},
		{10 * sim.Nanosecond, []emit{
			{ports: []int{0, 2, 1, 5, 3}, frame: small},
			{port: 2, frame: mid},
			{ports: []int{5, 4, 4, 2, 6, 0}, frame: mid},
		}},
	}
	rng := sim.NewRNG(seed, 0xe9)
	for i := 0; i < 60; i++ {
		b := egressBatch{at: rng.UniformTime(20*sim.Nanosecond, 3*sim.Microsecond)}
		for n := 1 + rng.IntN(4); n > 0; n-- {
			frame := frameOfSize(64+rng.IntN(8937), byte(i))
			if rng.IntN(3) == 0 {
				b.emits = append(b.emits, emit{port: rng.IntN(8), frame: frame})
				continue
			}
			ports := make([]int, 1+rng.IntN(12))
			for j := range ports {
				ports[j] = rng.IntN(8)
			}
			b.emits = append(b.emits, emit{ports: ports, frame: frame})
		}
		script = append(script, b)
	}
	return script
}

// runEgress plays script on a fresh 8-port PFE through emitAll, the shared
// record's, or the oracle's when ref is set, and returns the deliveries, the
// engine's metrics and the PFE's counters.
func runEgress(script []egressBatch, ref bool) ([]egressed, sim.Metrics, Stats, []PortStats) {
	eng := sim.NewEngine()
	p := New(eng, Config{NumPorts: 8})
	var got []egressed
	p.SetOutput(func(port int, frame []byte, at sim.Time) {
		got = append(got, egressed{at, port, &frame[0]})
	})
	emitAll := p.emitAll
	if ref {
		emitAll = (&refEgress{p: p}).emitAll
	}
	for _, b := range script {
		eng.At(b.at, func() { emitAll(b.emits) })
	}
	eng.Run()
	ports := make([]PortStats, p.Cfg.NumPorts)
	for i := range ports {
		ports[i] = p.PortStats(i)
	}
	return got, eng.Metrics(), p.Stats(), ports
}

// TestEgressSharedRecordMatchesPerCopyOracle holds the shared delivery record
// to egress as it was, one record per copy: every copy leaves at the same
// instant on the same port carrying the same frame, in the same order, and the
// engine's metrics (so every event's scheduling), the PFE's counters and
// every port's counters are equal. The fixed head of the script delivers a
// multicast's copies out of list order, which a record handing out its list
// in order would get wrong.
func TestEgressSharedRecordMatchesPerCopyOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		script := egressScript(seed)
		got, metrics, stats, ports := runEgress(script, false)
		want, refMetrics, refStats, refPorts := runEgress(script, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d copies delivered, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: copy %d went out port %d at %v (frame %p), oracle port %d at %v (frame %p)",
					seed, i, got[i].port, got[i].at, got[i].frame, want[i].port, want[i].at, want[i].frame)
			}
		}
		if metrics != refMetrics {
			t.Fatalf("seed %d: engine metrics %+v, oracle %+v", seed, metrics, refMetrics)
		}
		if stats != refStats {
			t.Fatalf("seed %d: PFE stats %+v, oracle %+v", seed, stats, refStats)
		}
		if !slices.Equal(ports, refPorts) {
			t.Fatalf("seed %d: port counters %+v, oracle %+v", seed, ports, refPorts)
		}
	}
	// The fixed head reorders the first multicast: port 1's copy leaves
	// before backlogged port 2's.
	got, _, _, _ := runEgress(egressScript(1)[:2], false)
	var order []int
	for _, g := range got[:4] {
		order = append(order, g.port)
	}
	if !slices.Equal(order, []int{0, 1, 3, 4}) {
		t.Fatalf("first deliveries on ports %v, want [0 1 3 4]: the first multicast's idle ports leave first", order)
	}
}
