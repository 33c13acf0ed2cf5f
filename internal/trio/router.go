// Package trio assembles Packet Forwarding Engines into a complete router in
// the style of Juniper's MX-series chassis (Fig. 1a of the paper): external
// ports attach servers or other devices to individual PFEs, and fabric links
// let PFEs exchange packets directly, which is what hierarchical aggregation
// (§4) rides on.
//
// Every simulated hop is a netsim.Link the router builds. A rig is a router
// plus these calls: Cable attaches one server to a port with an
// uplink/downlink pair of links, Connect joins a port to a port of a peer
// router (or of this one, across the chassis fabric) with a pair of links,
// and Instrument is the single place metrics, tracing and a fault plan attach
// to the engine and every PFE.
package trio

import (
	"fmt"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// Config sizes a router.
type Config struct {
	NumPFEs int
	PFE     pfe.Config
}

// FabricLinkConfig returns one direction of a chassis fabric hop: 400 Gbps,
// comfortably faster than the 100 Gbps ports it interconnects ("the
// interconnection fabric expands the bandwidth of a device much farther than
// a single chip could support", §2.1), and 500 ns of traversal latency.
func FabricLinkConfig() netsim.LinkConfig {
	return netsim.LinkConfig{Bandwidth: 400_000_000_000, Propagation: 500 * sim.Nanosecond}
}

// Router is a multi-PFE Trio device.
type Router struct {
	Engine *sim.Engine

	pfes []*pfe.PFE
	// out[pfe][port] is the link a cabled or connected port forwards onto;
	// ext[pfe][port] is the receiver AttachExternal bound there, the slice
	// made on the first such attachment. A port with neither black-holes its
	// frames, like an unconnected physical port.
	out [][]*netsim.Link
	ext [][]pfe.Output
	// ingress[pfe] is the one sink every link into that PFE delivers to,
	// tagged with the port it feeds.
	ingress []*netsim.Sink

	fcs   bool         // a fault plan is attached: ports fed by links check frames in
	fcsIn packet.Frame // decode scratch for that check
}

// New builds a router with cfg.NumPFEs PFEs on one simulation engine.
func New(eng *sim.Engine, cfg Config) *Router {
	if cfg.NumPFEs <= 0 {
		cfg.NumPFEs = 1
	}
	r := &Router{Engine: eng}
	for i := 0; i < cfg.NumPFEs; i++ {
		pcfg := cfg.PFE
		pcfg.ID = i
		p := pfe.New(eng, pcfg)
		out := make([]*netsim.Link, p.Cfg.NumPorts)
		p.SetOutput(func(port int, frame []byte, at sim.Time) {
			if l := out[port]; l != nil {
				l.Send(frame)
			} else if ext := r.ext[i]; ext != nil && ext[port] != nil {
				ext[port](port, frame, at)
			}
		})
		r.pfes = append(r.pfes, p)
		r.out = append(r.out, out)
		r.ext = append(r.ext, nil)
		r.ingress = append(r.ingress, netsim.NewSink(eng, r.ingressFn(p)))
	}
	return r
}

// PFE returns PFE i.
func (r *Router) PFE(i int) *pfe.PFE { return r.pfes[i] }

// claim panics unless (pfeID, port) is still unattached: a port takes one
// link or one external receiver.
func (r *Router) claim(pfeID, port int) {
	if r.out[pfeID][port] != nil || (r.ext[pfeID] != nil && r.ext[pfeID][port] != nil) {
		panic(fmt.Sprintf("trio: pfe%d port %d is already attached", pfeID, port))
	}
}

// AttachExternal binds an external receiver (a probe, a benchmark rig's
// server) to a PFE port. Frames the PFE forwards out that port are delivered
// to out. A port takes one attachment: a second one, of either kind, panics.
func (r *Router) AttachExternal(pfeID, port int, out pfe.Output) {
	r.claim(pfeID, port)
	if r.ext[pfeID] == nil {
		r.ext[pfeID] = make([]pfe.Output, len(r.out[pfeID]))
	}
	r.ext[pfeID][port] = out
}

// attach puts the frames (pfeID, port) forwards on link l.
func (r *Router) attach(pfeID, port int, l *netsim.Link) {
	r.claim(pfeID, port)
	r.out[pfeID][port] = l
}

// Inject delivers a frame arriving from outside on (pfeID, port) with the
// given reorder flow key.
func (r *Router) Inject(pfeID, port int, flow uint64, frame []byte) {
	r.pfes[pfeID].Inject(port, flow, frame)
}

// ingressFn is the receiver of every link that feeds PFE p, told the port.
// Frames are injected with the constant reorder flow uint64(port): a flow
// assigned per arrival would tie the reorder engine's per-flow sequencing to
// how same-instant deliveries happen to be queued.
func (r *Router) ingressFn(p *pfe.PFE) netsim.PortReceiver {
	return func(port int, f []byte, _ sim.Time) {
		// With a fault plan attached links may corrupt frames; the port
		// drops those the way the MAC's FCS check would (the UDP checksum
		// stands in for the FCS the frames do not carry), leaving the
		// repair to the sender's retransmission.
		if r.fcs && (packet.DecodeInto(&r.fcsIn, f) != nil || !r.fcsIn.VerifyUDPChecksum()) {
			return
		}
		p.Inject(port, uint64(port), f)
	}
}

// Cable attaches a server to (pfeID, port) over a pair of links on the
// router's engine and returns the uplink, the server's transmit side. The
// uplink is built before the downlink — callers hand out per-link loss seeds
// and fault streams in that order, so it is part of the determinism
// contract. Frames the PFE forwards out the port reach recv over the
// downlink, tagged with tag; many cables may share one sink (a bank of
// workers, tagged by worker). A nil recv cables a send-only server and
// leaves the port's egress unattached.
func (r *Router) Cable(pfeID, port int, up, down netsim.LinkConfig, recv *netsim.Sink, tag int) *netsim.Link {
	ul := r.ingress[pfeID].Link(r.Engine, up, port)
	if recv != nil {
		r.attach(pfeID, port, recv.Link(r.Engine, down, tag))
	}
	return ul
}

// Connect joins (pfeID, port) of this router to (peerPFE, peerPort) of peer
// with a pair of links: out carries this port's frames to the peer, in
// carries the peer port's frames back. Passing the router itself as peer is
// a chassis fabric hop (use FabricLinkConfig for both directions). The
// peer-bound link is built first; Connect returns both, peer-bound first, so
// the caller can read their counters. When the peer runs on another
// partition of a sim.Cluster, each link posts its arrivals across and
// registers its propagation delay as lookahead (netsim.Sink.Link).
func (r *Router) Connect(pfeID, port int, peer *Router, peerPFE, peerPort int, out, in netsim.LinkConfig) (ol, il *netsim.Link) {
	ol = peer.ingress[peerPFE].Link(r.Engine, out, peerPort)
	il = r.ingress[pfeID].Link(peer.Engine, in, port)
	r.attach(pfeID, port, ol)
	peer.attach(peerPFE, peerPort, il)
	return ol, il
}

// Link returns the link (pfeID, port) forwards onto — a cable's downlink or
// a connection's outbound link — or nil if the port has none. The router
// keeps no list of the links it built: a caller that reads their counters
// collects the ones Cable and Connect return, or reads a port's here.
func (r *Router) Link(pfeID, port int) *netsim.Link { return r.out[pfeID][port] }

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
