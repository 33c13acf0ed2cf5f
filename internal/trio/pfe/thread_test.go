package pfe

import (
	"encoding/binary"
	"strings"
	"testing"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/sim"
)

// TestInjectFromProcessPanics pins the guard on the PFE's one thread
// context: an app that dispatches on its own PFE from inside Process would
// have the new thread overwrite the running one's state, so the dispatch
// panics and the running thread's context is left as it was.
func TestInjectFromProcessPanics(t *testing.T) {
	p := New(sim.NewEngine(), Config{})
	p.SetApp(AppFunc(func(ctx *Ctx) {
		ctx.Forward(1)
		p.Inject(2, 2, frameOfSize(64, 2))
	}))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "from inside Process") {
			t.Fatalf("recovered %q, want the re-entrancy panic", msg)
		}
		if c := &p.ctx; c.pkt == nil || c.pkt.Port != 0 || c.verdict != VerdictForward || c.egressPort != 1 {
			t.Fatalf("running thread's context overwritten: pkt %+v verdict %v port %d", c.pkt, c.verdict, c.egressPort)
		}
	}()
	p.Inject(0, 0, frameOfSize(64, 0))
	t.Fatal("Inject from inside Process did not panic")
}

// TestInFlightThreadsShareOneContext injects 400 contributions at once into
// one PFE through a native app that holds each thread for 1 µs, so all 400
// are in flight together. Every Process call runs in the PFE's one Ctx; each
// port's frames leave in arrival order, back to back from the common
// completion instant; and a fresh PFE allocates at most one completion chunk
// per 32 in-flight threads plus a constant, not one record per thread.
func TestInFlightThreadsShareOneContext(t *testing.T) {
	const (
		n     = 400
		ports = 4
		size  = 64
		hold  = sim.Microsecond
	)
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = frameOfSize(size, 0)
		binary.BigEndian.PutUint16(frames[i], uint16(i))
	}
	app := func(p *PFE, forward bool, seen map[*Ctx]int) App {
		return AppFunc(func(ctx *Ctx) {
			if seen != nil {
				seen[ctx]++
			}
			ctx.ChargeInstr(int(hold / microcode.InstrTime))
			if forward {
				ctx.Forward(ctx.Packet().Port)
			} else {
				ctx.Consume()
			}
		})
	}
	inject := func(p *PFE) {
		for i, f := range frames {
			port := i % ports
			p.Inject(port, uint64(port), f)
		}
	}

	eng := sim.NewEngine()
	p := New(eng, Config{NumPorts: ports})
	seen := map[*Ctx]int{}
	p.SetApp(app(p, true, seen))
	var got []delivered
	p.SetOutput(collector(&got))
	inject(p)
	if busy := p.BusyThreads(); busy != n {
		t.Fatalf("%d threads busy after injecting %d, want all in flight", busy, n)
	}
	eng.Run()
	if len(seen) != 1 || seen[&p.ctx] != n {
		t.Fatalf("Process saw contexts %v, want the PFE's one context %d times", seen, n)
	}
	if len(got) != n {
		t.Fatalf("%d frames left, want %d", len(got), n)
	}
	ser := sim.Time(size * 8 * uint64(sim.Second) / p.Cfg.PortBandwidth)
	var sent [ports]int
	for _, d := range got {
		i := int(binary.BigEndian.Uint16(d.frame))
		k := sent[d.port]
		if want := k*ports + d.port; i != want {
			t.Fatalf("port %d frame %d is contribution %d, want %d (arrival order)", d.port, k, i, want)
		}
		if want := hold + sim.Time(k+1)*ser; d.at != want {
			t.Fatalf("port %d frame %d left at %v, want %v", d.port, k, d.at, want)
		}
		sent[d.port]++
	}

	// The allocation gate consumes every contribution, so no forwarded frame
	// is reassembled: what is left is the PFE's own in-flight state.
	const runs = 4
	pfes := make([]*PFE, runs+1) // AllocsPerRun makes one warm-up call
	for i := range pfes {
		pfes[i] = New(eng, Config{NumPorts: ports})
		pfes[i].SetApp(app(pfes[i], false, nil))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		inject(pfes[next])
		eng.Run()
		next++
	})
	if st := pfes[runs].Stats(); st.Consumed != n || st.PeakBusy != n {
		t.Fatalf("stats %+v, want %d consumed with all in flight", st, n)
	}
	// One chunk per 32 threads; beyond the chunks, the port-flow table and
	// the work queue.
	if limit := float64((n+31)/32 + 2); allocs > limit {
		t.Fatalf("%.0f allocations for %d in-flight threads, want <= %.0f (one per 32, plus a constant)",
			allocs, n, limit)
	} else {
		t.Logf("%.0f allocations for %d in-flight threads", allocs, n)
	}
}
