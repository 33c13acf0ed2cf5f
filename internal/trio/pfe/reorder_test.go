package pfe

import (
	"bytes"
	"cmp"
	"slices"
	"testing"

	"github.com/trioml/triogo/internal/sim"
)

// refReorder is the Reorder Engine as it was: a map of flows, each with a map
// of completed sequence numbers. It is the oracle for the slice-and-ring
// engine; release is called for every frame it lets out, in order.
type refReorder struct {
	flows map[uint64]*refFlow
}

type refFlow struct {
	nextSeq, nextRelease uint64
	done                 map[uint64]refReleased
}

type refReleased struct {
	frame []byte
	port  int
}

func (r *refReorder) arrive(flow uint64) uint64 {
	fs := r.flows[flow]
	if fs == nil {
		fs = &refFlow{done: make(map[uint64]refReleased)}
		r.flows[flow] = fs
	}
	seq := fs.nextSeq
	fs.nextSeq++
	return seq
}

func (r *refReorder) complete(flow, seq uint64, frame []byte, port int, release func(port int, frame []byte)) {
	fs := r.flows[flow]
	fs.done[seq] = refReleased{frame: frame, port: port}
	for {
		rel, ok := fs.done[fs.nextRelease]
		if !ok {
			return
		}
		delete(fs.done, fs.nextRelease)
		fs.nextRelease++
		if rel.frame != nil {
			release(rel.port, rel.frame)
		}
	}
}

// reorderCase is one packet of the property test's script and what its thread
// did with it.
type reorderCase struct {
	flow    uint64
	cost    int
	verdict Verdict
	port    int
	frame   []byte // tag in the first two bytes

	seq    uint64   // oracle sequence number, assigned in dispatch order
	doneAt sim.Time // thread completion instant, read inside Process
}

// TestReorderEngineMatchesMapOracle drives a PFE with waves of packets on
// port-numbered flows, flows past the port range and one past 2^32 (both map
// fallback), random processing costs — so completions overtake each other by
// hundreds of positions — and random drop/consume/forward verdicts, and
// replays the same arrivals and completions through the map implementation:
// every frame leaves on the same port at the same instant in the same order,
// per flow and egress port that order is arrival order, the port counters
// agree, and once a wave has drained no flow holds a parked entry or a map
// slot.
func TestReorderEngineMatchesMapOracle(t *testing.T) {
	flows := []uint64{0, 1, 2, 3, 15, 16, 200, 1<<32 + 5}
	for _, seed := range []uint64{1, 2, 3} {
		rng := sim.NewRNG(seed, 0x0dd)
		eng, refEng := sim.NewEngine(), sim.NewEngine()
		p, refP := New(eng, Config{}), New(refEng, Config{})
		var got, want []delivered
		p.SetOutput(collector(&got))
		refP.SetOutput(collector(&want))

		byTag := map[uint16]*reorderCase{}
		var dispatched []*reorderCase
		p.SetApp(AppFunc(func(ctx *Ctx) {
			c := byTag[uint16(ctx.Head()[0])<<8|uint16(ctx.Head()[1])]
			ctx.ChargeInstr(c.cost)
			switch c.verdict {
			case VerdictForward:
				ctx.Forward(c.port)
			case VerdictConsume:
				ctx.Consume()
			default:
				ctx.Drop()
			}
			c.doneAt = ctx.Now()
			dispatched = append(dispatched, c)
		}))

		ref := &refReorder{flows: map[uint64]*refFlow{}}
		tag := uint16(0)
		for wave := 0; wave < 3; wave++ {
			start := eng.Now()
			dispatched = dispatched[:0]
			for i := 0; i < 400; i++ {
				c := &reorderCase{
					flow:    flows[rng.IntN(len(flows))],
					cost:    1 + rng.IntN(3000),
					verdict: Verdict(rng.IntN(3)),
					port:    rng.IntN(4),
					frame:   frameOfSize(64+rng.IntN(400), 0),
				}
				c.frame[0], c.frame[1] = byte(tag>>8), byte(tag)
				byTag[tag] = c
				tag++
				eng.At(start+rng.UniformTime(0, 2*sim.Microsecond), func() { p.Inject(0, c.flow, c.frame) })
			}
			eng.Run()

			// The oracle sees the same arrivals (dispatch order) and the same
			// completions: thread-completion events fire by instant, and among
			// equal instants in the order they were scheduled, dispatch order.
			for _, c := range dispatched {
				c.seq = ref.arrive(c.flow)
			}
			completed := slices.Clone(dispatched)
			slices.SortStableFunc(completed, func(a, b *reorderCase) int { return cmp.Compare(a.doneAt, b.doneAt) })
			for _, c := range completed {
				frame := c.frame
				if c.verdict != VerdictForward {
					frame = nil
				}
				refEng.At(c.doneAt, func() {
					ref.complete(c.flow, c.seq, frame, c.port, func(port int, frame []byte) {
						refP.unicast(port, frame, refEng.Now())
					})
				})
			}
			refEng.Run()

			if len(p.flows) != 0 {
				t.Fatalf("seed %d wave %d: %d map-fallback flows still hold state after draining", seed, wave, len(p.flows))
			}
			for fs := p.flowFree; fs != nil; fs = fs.free {
				checkDrained(t, fs)
			}
			for i := range p.portFlows {
				checkDrained(t, &p.portFlows[i])
			}
		}

		if len(got) != len(want) || len(got) < 300 {
			t.Fatalf("seed %d: %d frames egressed, oracle %d", seed, len(got), len(want))
		}
		type flowPort struct {
			flow uint64
			port int
		}
		lastSeq := map[flowPort]uint64{}
		for i, g := range got {
			w := want[i]
			if g.port != w.port || g.at != w.at || !bytes.Equal(g.frame, w.frame) {
				t.Fatalf("seed %d: egress %d is tag %x on port %d at %v, oracle tag %x on port %d at %v",
					seed, i, g.frame[:2], g.port, g.at, w.frame[:2], w.port, w.at)
			}
			c := byTag[uint16(g.frame[0])<<8|uint16(g.frame[1])]
			// The oracle never forgets a flow, so its sequence numbers rank a
			// flow's packets by arrival across all waves. Ports serialize
			// independently, so the order is observable per egress port.
			k := flowPort{c.flow, g.port}
			if last, seen := lastSeq[k]; seen && c.seq <= last {
				t.Fatalf("seed %d: flow %#x egressed out of arrival order on port %d at frame %d", seed, c.flow, g.port, i)
			}
			lastSeq[k] = c.seq
		}
		for port := range p.ports {
			if p.PortStats(port) != refP.PortStats(port) {
				t.Fatalf("seed %d port %d: %+v, oracle %+v", seed, port, p.PortStats(port), refP.PortStats(port))
			}
		}
	}
}

func checkDrained(t *testing.T, fs *flowState) {
	t.Helper()
	if fs.parked != 0 || fs.nextRelease != fs.nextSeq {
		t.Fatalf("drained flow: %d parked, released %d of %d", fs.parked, fs.nextRelease, fs.nextSeq)
	}
	for _, slot := range fs.ring {
		if slot.done || slot.frame != nil {
			t.Fatalf("drained flow keeps a parked entry: %+v", slot)
		}
	}
}
