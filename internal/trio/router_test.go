package trio

import (
	"fmt"
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

// connectFabric joins PFE0 port 5 to PFE1 port 5 of a 2-PFE router across
// the chassis fabric and returns the PFE1-bound link and the one back.
func connectFabric(r *Router) (there, back *netsim.Link) {
	return r.Connect(0, 5, r, 1, 5, FabricLinkConfig(), FabricLinkConfig())
}

func TestRouterFabricPath(t *testing.T) {
	// PFE0 forwards everything out port 5; port 5 is wired across the
	// fabric to PFE1 port 5; PFE1 forwards out port 0 to an external sink.
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 2})
	there, back := connectFabric(r)
	var flows []uint64
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(5) }))
	r.PFE(1).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
		flows = append(flows, ctx.Packet().Flow)
		ctx.Forward(0)
	}))
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
	// The fabric port is fed by one link, so like a cabled port its flow is
	// the port number.
	if len(flows) != 1 || flows[0] != 5 {
		t.Fatalf("fabric arrivals took flows %v, want [5]", flows)
	}
	if there.Frames != 1 || back.Frames != 0 {
		t.Fatalf("want the PFE1-bound link first with the one frame; got %d there and %d back", there.Frames, back.Frames)
	}
	if r.Link(0, 5) != there || r.Link(1, 5) != back || r.Link(0, 0) != nil {
		t.Fatal("Link does not name the link each fabric port forwards onto")
	}
}

// TestRouterFabricRoundTrip checks both directions of a connection: PFE1
// replies to PFE0 over the return link, and the two directions queue
// independently — a burst one way does not delay the other.
func TestRouterFabricRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	r := New(eng, Config{NumPFEs: 2})
	there, back := connectFabric(r)
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
	if there.Frames != 1 || back.Frames != 1 {
		t.Fatalf("round trip carried %d frames there and %d back, want 1 and 1", there.Frames, back.Frames)
	}

	// Load one direction with a burst: the other stays idle and free.
	for i := 0; i < 8; i++ {
		there.Send(make([]byte, 5000))
	}
	if !there.Busy() || back.Busy() || back.FreeAt() > eng.Now() {
		t.Fatalf("a burst on the PFE1-bound link made the return link busy (until %v at %v)", back.FreeAt(), eng.Now())
	}
}

// A port takes one attachment, a link (Cable, Connect) or an external
// receiver, and a second one of either kind panics.
func TestRouterConflictingAttachmentPanics(t *testing.T) {
	def := netsim.DefaultLinkConfig()
	probe := func(int, []byte, sim.Time) {}
	for _, tc := range []struct {
		name          string
		first, second func(r *Router)
	}{
		{"external then fabric", func(r *Router) { r.AttachExternal(1, 5, probe) }, func(r *Router) { connectFabric(r) }},
		{"fabric then external", func(r *Router) { connectFabric(r) }, func(r *Router) { r.AttachExternal(1, 5, probe) }},
		{"cable then external", func(r *Router) { r.Cable(0, 3, def, def, netsim.NewSink(r.Engine, nil), 0) },
			func(r *Router) { r.AttachExternal(0, 3, probe) }},
		{"cable then cable", func(r *Router) { r.Cable(0, 3, def, def, netsim.NewSink(r.Engine, nil), 0) },
			func(r *Router) { r.Cable(0, 3, def, def, netsim.NewSink(r.Engine, nil), 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(sim.NewEngine(), Config{NumPFEs: 2})
			tc.first(r)
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.second(r)
		})
	}
}

// TestFabricBurstSerializationExact sends a back-to-back burst of 187-byte
// frames across a fabric connection. The link carries each frame's
// sub-nanosecond serialization remainder, so the last arrival is exactly
// ⌊n·187·8 / 400⌋ ns after the burst starts, plus the 500 ns traversal: the
// burst keeps the fabric's full 400 Gbps instead of losing 0.74 ns per frame
// to truncation.
func TestFabricBurstSerializationExact(t *testing.T) {
	const n, frameBytes = 10, 187
	eng := sim.NewEngine()
	// An egress port fast enough to serialize in zero time hands the fabric
	// link all n frames at the same instant.
	r := New(eng, Config{NumPFEs: 2, PFE: pfe.Config{PortBandwidth: 1 << 62}})
	connectFabric(r)
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(5) }))
	var last sim.Time
	got := 0
	r.PFE(1).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
		got++
		last = ctx.Packet().Arrival
		ctx.Consume()
	}))
	for i := 0; i < n; i++ {
		r.Inject(0, 0, 0, make([]byte, frameBytes))
	}
	eng.Run()
	fab := FabricLinkConfig()
	want := sim.Time(n*frameBytes*8*uint64(sim.Second)/fab.Bandwidth) + fab.Propagation
	if got != n || last != want {
		t.Fatalf("%d of %d frames arrived, the last at %v; want all, the last at ⌊%d·%d·8/400⌋ ns + 500 ns = %v",
			got, n, last, n, frameBytes, want)
	}
}

// TestConnectAcrossPartitions connects two routers on the two partitions of
// a sim.Cluster. Every arrival happens at the instant it does when both
// routers share one engine, and the cluster's lookahead is the links'
// propagation delay.
func TestConnectAcrossPartitions(t *testing.T) {
	link := netsim.LinkConfig{Bandwidth: 100_000_000_000, Propagation: 700 * sim.Nanosecond}
	// Router a forwards frames from port 1 to router b, which bounces them
	// back; a then forwards the returns out port 0 to a sink. Each side
	// records arrivals only on its own partition.
	run := func(ea, eb *sim.Engine, run func()) (atB, atSink []sim.Time) {
		a := New(ea, Config{NumPFEs: 1})
		b := New(eb, Config{NumPFEs: 1})
		a.Connect(0, 2, b, 0, 3, link, link)
		a.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
			if ctx.Packet().Port == 2 {
				ctx.Forward(0)
				return
			}
			ctx.Forward(2)
		}))
		b.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
			atB = append(atB, ctx.Packet().Arrival)
			ctx.Forward(3)
		}))
		a.AttachExternal(0, 0, func(_ int, _ []byte, at sim.Time) { atSink = append(atSink, at) })
		for i := 0; i < 5; i++ {
			a.Inject(0, 1, 1, make([]byte, 100+300*i))
		}
		run()
		return atB, atSink
	}
	one := sim.NewEngine()
	wantB, wantSink := run(one, one, func() { one.Run() })
	c := sim.NewCluster(2)
	gotB, gotSink := run(c.Engine(0), c.Engine(1), func() { c.Run(nil, sim.Second) })
	if len(wantSink) != 5 || fmt.Sprint(gotB, gotSink) != fmt.Sprint(wantB, wantSink) {
		t.Fatalf("across partitions: arrivals at b %v, at the sink %v; on one engine %v and %v",
			gotB, gotSink, wantB, wantSink)
	}
	if c.Lookahead() != link.Propagation {
		t.Fatalf("lookahead = %v, want the links' propagation %v", c.Lookahead(), link.Propagation)
	}
}

// TestConnectBetweenRouters joins ports of two routers on one engine. Each
// direction takes its own LinkConfig, arrivals carry the receiving port as
// their flow, and Connect returns both links, peer-bound first: the caller's
// port forwards onto the first and the peer's port onto the second.
func TestConnectBetweenRouters(t *testing.T) {
	eng := sim.NewEngine()
	a, b := New(eng, Config{NumPFEs: 1}), New(eng, Config{NumPFEs: 1})
	out := netsim.LinkConfig{Bandwidth: 100_000_000_000, Propagation: 300 * sim.Nanosecond}
	in := netsim.LinkConfig{Bandwidth: 100_000_000_000, Propagation: 2 * sim.Microsecond}
	there, back := a.Connect(0, 2, b, 0, 3, out, in)
	var atA, atB []pfe.Packet
	a.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
		atA = append(atA, *ctx.Packet())
		ctx.Consume()
	}))
	b.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
		atB = append(atB, *ctx.Packet())
		ctx.Forward(3) // back to a over the return link
	}))
	if a.Link(0, 2) != there || b.Link(0, 3) != back {
		t.Fatal("Connect's links are not the ones the two ports forward onto")
	}
	// 1250 bytes serialize in 100 ns at 100 Gbps.
	there.Send(make([]byte, 1250))
	back.Send(make([]byte, 1250))
	eng.Run()
	if len(atB) != 1 || atB[0].Port != 3 || atB[0].Flow != 3 || atB[0].Arrival != 400*sim.Nanosecond {
		t.Fatalf("b saw %+v; want one packet on port 3, flow 3, at 100 ns + 300 ns", atB)
	}
	if len(atA) != 2 || atA[0].Port != 2 || atA[0].Flow != 2 || atA[0].Arrival != 2100*sim.Nanosecond {
		t.Fatalf("a saw %d packets, the first %+v; want 2, the first on port 2, flow 2, at 100 ns + 2 µs", len(atA), atA)
	}
	if there.Frames != 1 || back.Frames != 2 {
		t.Fatalf("links carried %d frames to b and %d back, want 1 and 2", there.Frames, back.Frames)
	}
}

// TestConnectChecksFramesAtTheReceiver pins whose frame check guards a
// connected port: the router that owns it. Frames the a→b link corrupts reach
// b's application while only a has a fault plan, and b's port drops exactly
// those once b has one too.
func TestConnectChecksFramesAtTheReceiver(t *testing.T) {
	const n = 200
	frame := packet.BuildUDP(packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}, SrcPort: 1, DstPort: 2}, make([]byte, 200))
	run := func(peerPlan bool) (seen, bad int, corrupted uint64) {
		plan := faults.NewPlan(1, faults.Config{Link: faults.LinkConfig{CorruptProb: 0.5}})
		eng := sim.NewEngine()
		a, b := New(eng, Config{NumPFEs: 1}), New(eng, Config{NumPFEs: 1})
		out := FabricLinkConfig()
		out.Faults = plan.Link(0)
		there, _ := a.Connect(0, 2, b, 0, 3, out, FabricLinkConfig())
		a.Instrument(nil, nil, plan)
		if peerPlan {
			b.Instrument(nil, nil, plan)
		}
		a.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) { ctx.Forward(2) }))
		b.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
			seen++
			if f, err := packet.Decode(ctx.Packet().Frame); err != nil || !f.VerifyUDPChecksum() {
				bad++
			}
			ctx.Consume()
		}))
		for i := 0; i < n; i++ {
			a.Inject(0, 0, 0, frame)
		}
		eng.Run()
		return seen, bad, there.Faults().LinkCorruptions
	}
	seen, bad, corrupted := run(false)
	if corrupted == 0 || seen != n || bad == 0 {
		t.Fatalf("b without a plan: %d of %d frames reached the application, %d of them bad, %d corrupted on the link; want all, some, some",
			seen, n, bad, corrupted)
	}
	seen2, bad2, corrupted2 := run(true)
	if corrupted2 != corrupted || bad2 != 0 || seen2 != n-bad {
		t.Fatalf("b with a plan: %d frames reached the application, %d of them bad (%d corrupted on the link); want %d, none",
			seen2, bad2, corrupted2, n-bad)
	}
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

// cabledRouter builds a one-PFE router that bounces every packet back out
// its ingress port, records what the PFE saw, and cables a server to port,
// returning the server's uplink.
func cabledRouter(port int, up, down netsim.LinkConfig, recv netsim.Receiver) (r *Router, ul *netsim.Link, seen *[]pfe.Packet) {
	r = New(sim.NewEngine(), Config{NumPFEs: 1})
	seen = new([]pfe.Packet)
	r.PFE(0).SetApp(pfe.AppFunc(func(ctx *pfe.Ctx) {
		*seen = append(*seen, *ctx.Packet())
		ctx.Forward(ctx.Packet().Port)
	}))
	rx := netsim.NewSink(r.Engine, func(_ int, f []byte, at sim.Time) { recv(f, at) })
	return r, r.Cable(0, port, up, down, rx, 0), seen
}

func TestCableRoundTrip(t *testing.T) {
	const port, frameLen = 3, 1250 // 10,000 bits: 1 µs at 10 Gbps
	up := netsim.LinkConfig{Bandwidth: 10_000_000_000, Propagation: 700 * sim.Nanosecond}
	roundTrip := func(downProp sim.Time) (pfeAt, serverAt sim.Time) {
		down := netsim.LinkConfig{Bandwidth: 100_000_000_000, Propagation: downProp}
		got := 0
		r, ul, seen := cabledRouter(port, up, down, func(f []byte, at sim.Time) {
			got++
			serverAt = at
			if len(f) != frameLen {
				t.Errorf("server received %d bytes, want %d", len(f), frameLen)
			}
		})
		ul.Send(make([]byte, frameLen))
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
// Cable builds the uplink before the downlink, and each direction takes its
// own LinkConfig — here, as the loss sweeps use it, loss on the uplink only.
func TestCableLinkOrderAndDirection(t *testing.T) {
	const n = 20
	up, down := netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig()
	up.LossProb, up.LossSeed = 1, 7
	got := 0
	r, ul, seen := cabledRouter(2, up, down, func([]byte, sim.Time) { got++ })
	for i := 0; i < n; i++ {
		ul.Send(make([]byte, 100))           // dies on the uplink
		r.Inject(0, 2, 2, make([]byte, 100)) // bounced out port 2, down the downlink
	}
	r.Engine.Run()
	dl := r.Link(0, 2)
	if ul.Frames != n || ul.Dropped != n {
		t.Fatalf("uplink carried %d frames and dropped %d; the lossy uplink is the one Cable returns", ul.Frames, ul.Dropped)
	}
	if dl.Frames != n || dl.Dropped != 0 || got != n || len(*seen) != n {
		t.Fatalf("downlink carried %d frames, dropped %d; server got %d, PFE saw %d; want %d, 0, %d, %d",
			dl.Frames, dl.Dropped, got, len(*seen), n, n, n)
	}

	// A send-only cable builds its uplink alone and leaves egress unattached.
	tx := r.Cable(0, 5, down, down, nil, 0)
	tx.Send(make([]byte, 100))
	r.Engine.Run() // the bounce out port 5 black-holes instead of panicking
	if r.Link(0, 5) != nil || len(*seen) != n+1 {
		t.Fatalf("send-only cable: port 5 forwards onto %v, PFE saw %d packets", r.Link(0, 5), len(*seen))
	}

	// Loss on the downlink only: the link into the server's sink keeps it.
	down.LossProb, down.LossSeed = 1, 9
	got = 0
	r, ul, seen = cabledRouter(2, netsim.DefaultLinkConfig(), down, func([]byte, sim.Time) { got++ })
	for i := 0; i < n; i++ {
		ul.Send(make([]byte, 100))
	}
	r.Engine.Run()
	if dl := r.Link(0, 2); ul.Dropped != 0 || dl.Dropped != n || got != 0 || len(*seen) != n {
		t.Fatalf("lossy downlink: uplink dropped %d, downlink %d; server got %d, PFE saw %d; want 0, %d, 0, %d",
			ul.Dropped, dl.Dropped, got, len(*seen), n, n)
	}
}

func TestInstrumentNilIsANoOp(t *testing.T) {
	build := func(instrument bool) (*Router, func([]byte)) {
		r, ul, _ := cabledRouter(1, netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig(), func([]byte, sim.Time) {})
		if instrument {
			r.Instrument(nil, nil, nil)
		}
		return r, ul.Send
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
		r, ul, seen := cabledRouter(1, up, netsim.DefaultLinkConfig(), func([]byte, sim.Time) {})
		if instrument {
			r.Instrument(reg, tr, plan)
		}
		frame := packet.BuildUDP(packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2}, SrcPort: 1, DstPort: 2}, make([]byte, 1400))
		for i := 0; i < n; i++ {
			ul.Send(frame)
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
