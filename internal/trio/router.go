// Package trio assembles Packet Forwarding Engines and the interconnection
// fabric into a complete router in the style of Juniper's MX-series chassis
// (Fig. 1a of the paper): external ports attach servers or other devices to
// individual PFEs; internal fabric connections let PFEs exchange packets
// directly, which is what hierarchical aggregation (§4) rides on.
//
// A rig is a router plus two calls: Cable attaches one server to a port with
// an uplink/downlink pair of netsim links, and Instrument is the single
// place metrics, tracing and a fault plan attach to the engine and every PFE.
package trio

import (
	"fmt"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/fabric"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// Config sizes a router.
type Config struct {
	NumPFEs int
	PFE     pfe.Config
	Fabric  fabric.Config
}

// FabricFlowBase offsets fabric-delivered flows in the reorder engine's key
// space so they never collide with external ingress flows.
const FabricFlowBase = 1 << 48

// Router is a multi-PFE Trio device.
type Router struct {
	Engine *sim.Engine
	Fabric *fabric.Fabric

	pfes      []*pfe.PFE
	external  map[portKey]pfe.Output
	internal  map[portKey]internalLink
	flowOfPkt func(frame []byte) uint64

	links []*netsim.Link // every Cable link, in creation order
	fcs   bool           // a fault plan is attached: cabled ports check frames in
	fcsIn packet.Frame   // decode scratch for that check
}

type portKey struct {
	pfeID, port int
}

type internalLink struct {
	dstPFE, dstPort int
}

// New builds a router with cfg.NumPFEs PFEs on one simulation engine.
func New(eng *sim.Engine, cfg Config) *Router {
	if cfg.NumPFEs <= 0 {
		cfg.NumPFEs = 1
	}
	r := &Router{
		Engine:   eng,
		Fabric:   fabric.New(eng, cfg.NumPFEs, cfg.Fabric),
		external: make(map[portKey]pfe.Output),
		internal: make(map[portKey]internalLink),
	}
	for i := 0; i < cfg.NumPFEs; i++ {
		pcfg := cfg.PFE
		pcfg.ID = i
		p := pfe.New(eng, pcfg)
		id := i
		p.SetOutput(func(port int, frame []byte, at sim.Time) { r.route(id, port, frame) })
		r.pfes = append(r.pfes, p)
	}
	return r
}

// NumPFEs reports the PFE count.
func (r *Router) NumPFEs() int { return len(r.pfes) }

// PFE returns PFE i.
func (r *Router) PFE(i int) *pfe.PFE { return r.pfes[i] }

// SetFlowClassifier installs the function that derives a reorder-engine flow
// key from a frame arriving over the fabric. Without one, fabric arrivals
// use a single flow per (src PFE egress port).
func (r *Router) SetFlowClassifier(fn func(frame []byte) uint64) { r.flowOfPkt = fn }

// AttachExternal binds an external receiver (a server NIC, a peer router) to
// a PFE port. Frames the PFE forwards out that port are delivered to out.
func (r *Router) AttachExternal(pfeID, port int, out pfe.Output) {
	k := portKey{pfeID, port}
	if _, dup := r.internal[k]; dup {
		panic(fmt.Sprintf("trio: port %v already connected internally", k))
	}
	r.external[k] = out
}

// ConnectInternal joins (pfeA, portA) and (pfeB, portB) across the fabric in
// both directions, the way line-card PFEs interconnect inside a chassis.
func (r *Router) ConnectInternal(pfeA, portA, pfeB, portB int) {
	ka, kb := portKey{pfeA, portA}, portKey{pfeB, portB}
	for _, k := range []portKey{ka, kb} {
		if _, dup := r.external[k]; dup {
			panic(fmt.Sprintf("trio: port %v already attached externally", k))
		}
	}
	r.internal[ka] = internalLink{dstPFE: pfeB, dstPort: portB}
	r.internal[kb] = internalLink{dstPFE: pfeA, dstPort: portA}
}

// Inject delivers a frame arriving from outside on (pfeID, port) with the
// given reorder flow key.
func (r *Router) Inject(pfeID, port int, flow uint64, frame []byte) {
	r.pfes[pfeID].Inject(port, flow, frame)
}

// Cable attaches a server to (pfeID, port) over a pair of links on the
// router's engine and returns the server's transmit function. The uplink is
// built before the downlink — callers hand out per-link loss seeds and fault
// streams in that order, so it is part of the determinism contract. Frames
// the server sends are injected on the port with the constant reorder flow
// uint64(port): a flow assigned per arrival would tie the reorder engine's
// per-flow sequencing to how same-instant deliveries happen to be queued.
// Frames the PFE forwards out the port reach recv over the downlink; a nil
// recv cables a send-only server and leaves the port's egress unattached.
func (r *Router) Cable(pfeID, port int, up, down netsim.LinkConfig, recv netsim.Receiver) (send func([]byte)) {
	p := r.pfes[pfeID]
	ul := netsim.NewLink(r.Engine, up, func(f []byte, _ sim.Time) {
		// With a fault plan attached links may corrupt frames; the port
		// drops those the way the MAC's FCS check would (the UDP checksum
		// stands in for the FCS the frames do not carry), leaving the
		// repair to the sender's retransmission.
		if r.fcs && (packet.DecodeInto(&r.fcsIn, f) != nil || !r.fcsIn.VerifyUDPChecksum()) {
			return
		}
		p.Inject(port, uint64(port), f)
	})
	r.links = append(r.links, ul)
	if recv != nil {
		dl := netsim.NewLink(r.Engine, down, recv)
		r.AttachExternal(pfeID, port, func(_ int, f []byte, _ sim.Time) { dl.Send(f) })
		r.links = append(r.links, dl)
	}
	return ul.Send
}

// Links returns every link Cable built, in creation order (per cable: uplink,
// then downlink), for reading their frame/drop counters.
func (r *Router) Links() []*netsim.Link { return r.links }

// Instrument is the one place observability and fault injection attach to a
// router: the engine, every PFE and every PFE's memory system register their
// series on reg, every PFE records spans into tr, and PFE i takes
// plan.PFE(i) / plan.Mem(i). Each argument is independently nil-safe, and
// nil means off — Instrument(nil, nil, nil) leaves the router as New built it.
func (r *Router) Instrument(reg *obs.Registry, tr *obs.Trace, plan *faults.Plan) {
	r.Engine.RegisterObs(reg)
	for i, p := range r.pfes {
		p.RegisterObs(reg)
		p.Mem.RegisterObs(reg)
		p.SetTrace(tr)
		p.SetFaults(plan.PFE(uint64(i)))
		p.Mem.SetFaults(plan.Mem(uint64(i)))
	}
	r.fcs = plan != nil
}

// route dispatches a PFE egress frame to its attached destination.
func (r *Router) route(pfeID, port int, frame []byte) {
	k := portKey{pfeID, port}
	if out, ok := r.external[k]; ok {
		out(port, frame, r.Engine.Now())
		return
	}
	if link, ok := r.internal[k]; ok {
		src := pfeID
		r.Fabric.Send(src, link.dstPFE, frame, func(f []byte, at sim.Time) {
			flow := FabricFlowBase | uint64(src)<<16 | uint64(port)
			if r.flowOfPkt != nil {
				flow = FabricFlowBase | r.flowOfPkt(f)
			}
			r.pfes[link.dstPFE].Inject(link.dstPort, flow, f)
		})
		return
	}
	// Unattached port: the frame leaves the simulated world (black-holed),
	// which mirrors an unconnected physical port.
}
