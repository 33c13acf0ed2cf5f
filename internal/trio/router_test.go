package trio

import (
	"io"
	"strings"
	"testing"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
)

func TestRouterExternalForwarding(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 1})
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(1) }))
	var got [][]byte
	r.AttachExternal(0, 1, func(port int, frame []byte, at sim.Time) {
		got = append(got, frame)
	})
	r.Inject(0, 0, 7, make([]byte, 100))
	eng.Run()
	if len(got) != 1 || len(got[0]) != 100 {
		t.Fatalf("delivered %d frames", len(got))
	}
}

func TestRouterFabricPath(t *testing.T) {
	// PFE0 forwards everything out port 5; port 5 is wired across the
	// fabric to PFE1 port 5; PFE1 forwards out port 0 to an external sink.
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 2})
	r.ConnectInternal(0, 5, 1, 5)
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(5) }))
	r.PFE(1).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(0) }))
	var gotAt sim.Time
	n := 0
	r.AttachExternal(1, 0, func(port int, frame []byte, at sim.Time) {
		n++
		gotAt = at
	})
	r.Inject(0, 0, 1, make([]byte, 1000))
	eng.Run()
	if n != 1 {
		t.Fatalf("delivered %d frames across fabric", n)
	}
	// Must include the 500 ns fabric traversal.
	if gotAt < 500*sim.Nanosecond {
		t.Fatalf("arrival %v too early for fabric latency", gotAt)
	}
	if r.Fabric.Frames() != 1 {
		t.Fatalf("fabric frames = %d", r.Fabric.Frames())
	}
}

func TestRouterFabricRoundTrip(t *testing.T) {
	// Internal links are bidirectional: PFE1 can reply to PFE0.
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 2})
	r.ConnectInternal(0, 5, 1, 5)
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
		if ctx.Packet().Port == 5 { // came back over the fabric
			ctx.Forward(0)
			return
		}
		ctx.Forward(5)
	}))
	r.PFE(1).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(5) })) // bounce back
	n := 0
	r.AttachExternal(0, 0, func(int, []byte, sim.Time) { n++ })
	r.Inject(0, 1, 1, make([]byte, 200))
	eng.Run()
	if n != 1 {
		t.Fatalf("round trip delivered %d", n)
	}
}

func TestRouterConflictingAttachmentPanics(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 2})
	r.AttachExternal(0, 1, func(int, []byte, sim.Time) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.ConnectInternal(0, 1, 1, 1)
}

func TestRouterUnattachedPortBlackHoles(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 1})
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(9) }))
	r.Inject(0, 0, 1, make([]byte, 64))
	eng.Run() // must not panic
	if r.PFE(0).Stats().Forwarded != 1 {
		t.Fatal("packet not processed")
	}
}

func TestRouterFlowClassifierAppliedOnFabric(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 2})
	r.ConnectInternal(0, 5, 1, 5)
	r.SetFlowClassifier(func(frame []byte) uint64 { return uint64(frame[0]) })
	var flows []uint64
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(5) }))
	r.PFE(1).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
		flows = append(flows, ctx.Packet().Flow)
		ctx.Consume()
	}))
	f := make([]byte, 64)
	f[0] = 9
	r.Inject(0, 0, 1, f)
	eng.Run()
	if len(flows) != 1 || flows[0] != FabricFlowBase|9 {
		t.Fatalf("flows = %v", flows)
	}
}

// cabledRouter builds a one-PFE router that bounces every packet back out
// its ingress port, records what the PFE saw, and cables a server to port.
func cabledRouter(port int, up, down netsim.LinkConfig, recv netsim.Receiver) (r *Router, send func([]byte), seen *[]pfe.Packet) {
	r = New(sim.NewEngine(), Config{NumPFEs: 1})
	seen = new([]pfe.Packet)
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
		*seen = append(*seen, *ctx.Packet())
		ctx.Forward(ctx.Packet().Port)
	}))
	return r, r.Cable(0, port, up, down, recv), seen
}

func TestCableRoundTrip(t *testing.T) {
	const port, frameLen = 3, 1250 // 10,000 bits: 1 µs at 10 Gbps
	up := netsim.LinkConfig{Bandwidth: 10_000_000_000, Propagation: 700 * sim.Nanosecond}
	roundTrip := func(downProp sim.Time) (pfeAt, serverAt sim.Time) {
		down := netsim.LinkConfig{Bandwidth: 100_000_000_000, Propagation: downProp}
		got := 0
		r, send, seen := cabledRouter(port, up, down, func(f []byte, at sim.Time) {
			got++
			serverAt = at
			if len(f) != frameLen {
				t.Errorf("server received %d bytes, want %d", len(f), frameLen)
			}
		})
		send(make([]byte, frameLen))
		r.Engine.Run()
		if len(*seen) != 1 || got != 1 {
			t.Fatalf("PFE saw %d packets, server received %d frames; want 1 and 1", len(*seen), got)
		}
		pkt := (*seen)[0]
		if pkt.Port != port || pkt.Flow != port {
			t.Fatalf("arrived on port %d with flow %d, want both %d", pkt.Port, pkt.Flow, port)
		}
		return pkt.Arrival, serverAt
	}
	pfeAt, serverAt := roundTrip(300 * sim.Nanosecond)
	if want := sim.Microsecond + 700*sim.Nanosecond; pfeAt != want {
		t.Fatalf("frame reached the PFE at %v, want uplink serialisation + propagation = %v", pfeAt, want)
	}
	// 100 ns of downlink serialisation plus its propagation bound the return
	// leg from below, and lengthening only that cable moves only that leg.
	if serverAt < pfeAt+400*sim.Nanosecond {
		t.Fatalf("result reached the server at %v, before the downlink could carry it from %v", serverAt, pfeAt)
	}
	pfeAt2, serverAt2 := roundTrip(5300 * sim.Nanosecond)
	if pfeAt2 != pfeAt || serverAt2-serverAt != 5*sim.Microsecond {
		t.Fatalf("a 5 µs longer downlink moved PFE arrival %v->%v and server arrival %v->%v",
			pfeAt, pfeAt2, serverAt, serverAt2)
	}
}

// TestCableLinkOrderAndDirection pins what rigs build their determinism on:
// Cable records the uplink before the downlink, and each direction takes its
// own LinkConfig — here, as the loss sweeps use it, loss on the uplink only.
func TestCableLinkOrderAndDirection(t *testing.T) {
	const n = 20
	up, down := netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig()
	up.LossProb, up.LossSeed = 1, 7
	got := 0
	r, send, seen := cabledRouter(2, up, down, func([]byte, sim.Time) { got++ })
	for i := 0; i < n; i++ {
		send(make([]byte, 100))              // dies on the uplink
		r.Inject(0, 2, 2, make([]byte, 100)) // bounced out port 2, down the downlink
	}
	r.Engine.Run()
	links := r.Links()
	if len(links) != 2 {
		t.Fatalf("router recorded %d links, want 2", len(links))
	}
	if links[0].Frames != n || links[0].Dropped != n {
		t.Fatalf("links[0] carried %d frames and dropped %d; the lossy uplink must come first", links[0].Frames, links[0].Dropped)
	}
	if links[1].Frames != n || links[1].Dropped != 0 || got != n || len(*seen) != n {
		t.Fatalf("links[1] carried %d frames, dropped %d; server got %d, PFE saw %d; want %d, 0, %d, %d",
			links[1].Frames, links[1].Dropped, got, len(*seen), n, n, n)
	}

	// A send-only cable records its uplink alone and leaves egress unattached.
	tx := r.Cable(0, 5, down, down, nil)
	tx(make([]byte, 100))
	r.Engine.Run() // the bounce out port 5 black-holes instead of panicking
	if len(r.Links()) != 3 || len(*seen) != n+1 {
		t.Fatalf("send-only cable: %d links, PFE saw %d packets", len(r.Links()), len(*seen))
	}
}

func TestInstrumentNilIsANoOp(t *testing.T) {
	build := func(instrument bool) (*Router, func([]byte)) {
		r, send, _ := cabledRouter(1, netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig(), func([]byte, sim.Time) {})
		if instrument {
			r.Instrument(nil, nil, nil)
		}
		return r, send
	}
	frame := make([]byte, 256)
	run := func(r *Router, send func([]byte)) (pfe.Stats, sim.Time, float64) {
		for i := 0; i < 50; i++ {
			send(frame)
		}
		r.Engine.Run()
		perFrame := testing.AllocsPerRun(100, func() {
			send(frame)
			r.Engine.Run()
		})
		return r.PFE(0).Stats(), r.Engine.Now(), perFrame
	}
	plainStats, plainNow, plainAllocs := run(build(false))
	r, send := build(true)
	stats, now, allocs := run(r, send)
	if stats != plainStats || now != plainNow || allocs != plainAllocs {
		t.Fatalf("Instrument(nil, nil, nil) changed the run: stats %+v at %v with %v allocs/frame, uninstrumented %+v at %v with %v",
			stats, now, allocs, plainStats, plainNow, plainAllocs)
	}
	if n := testing.AllocsPerRun(100, func() { r.Instrument(nil, nil, nil) }); n != 0 {
		t.Fatalf("Instrument(nil, nil, nil) allocates %v times", n)
	}
}

// TestInstrumentAttachesEverything checks the three non-nil arguments each
// reach the layer they are for: series from the engine, the PFE and its
// memory land on the registry, spans land on the trace, and a fault plan
// both stalls PPE threads and turns on the ports' frame check, so frames a
// faulty uplink corrupts are dropped before dispatch instead of reaching the
// application.
func TestInstrumentAttachesEverything(t *testing.T) {
	const n = 200
	cfg := faults.Config{Link: faults.LinkConfig{CorruptProb: 0.5}, PFE: faults.PFEConfig{StallProb: 1}}
	run := func(instrument bool) (corrupt int, st pfe.Stats, plan *faults.Plan, reg *obs.Registry, tr *obs.Trace) {
		plan, reg, tr = faults.NewPlan(1, cfg), obs.NewRegistry(), obs.NewTrace(io.Discard, 0)
		up := netsim.DefaultLinkConfig()
		up.Faults = plan.Link(0)
		r, send, seen := cabledRouter(1, up, netsim.DefaultLinkConfig(), func([]byte, sim.Time) {})
		if instrument {
			r.Instrument(reg, tr, plan)
		}
		frame := packet.BuildUDP(packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}, SrcPort: 1, DstPort: 2}, make([]byte, 1400))
		for i := 0; i < n; i++ {
			send(frame)
		}
		r.Engine.Run()
		for _, pkt := range *seen {
			if f, err := packet.Decode(pkt.Frame); err != nil || !f.VerifyUDPChecksum() {
				corrupt++
			}
		}
		return corrupt, r.PFE(0).Stats(), plan, reg, tr
	}
	if corrupt, _, plan, _, _ := run(false); corrupt == 0 || plan.Stats().PPEStalls != 0 {
		t.Fatalf("uninstrumented router: %d corrupted frames reached the application, %d stalls; want some and none",
			corrupt, plan.Stats().PPEStalls)
	}
	corrupt, st, plan, reg, tr := run(true)
	if corrupt != 0 || st.Dispatched == 0 || st.Dispatched >= n {
		t.Fatalf("with a plan: %d corrupted frames reached the application, %d of %d dispatched", corrupt, st.Dispatched, n)
	}
	if plan.Stats().PPEStalls != st.Dispatched {
		t.Fatalf("plan.PFE(0) not installed: %d stalls over %d dispatches at StallProb 1", plan.Stats().PPEStalls, st.Dispatched)
	}
	names := strings.Join(reg.Names(), " ")
	for _, want := range []string{"triogo_sim_events_executed_total", "triogo_pfe_packets_dispatched_total", "triogo_smem_rmw_ops_total"} {
		if !strings.Contains(names, want) {
			t.Errorf("registry is missing %s", want)
		}
	}
	if tr.Events() == 0 {
		t.Error("trace recorded no PFE spans")
	}
}
