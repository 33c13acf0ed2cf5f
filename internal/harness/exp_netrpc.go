package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/trioml/triogo/internal/apps/netrpc"
	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
)

func init() {
	register(Experiment{
		Name: "netrpc",
		Desc: "In-network RPC aggregation/caching: reply latency, origin offload, poisoning defense, cost conformance",
		Run:  runNetRPC,
	})
}

// netrpcCfg parameterizes the netrpc testbed: closed-loop RPC clients on
// fast in-rack links, the origin server behind a slow metro link, a
// hot/cold key popularity split, and two fault injectors (origin
// retransmits and a client-port spoofer).
type netrpcCfg struct {
	clients     int
	requests    int // per client
	keys        int // distinct RPC population (slot-disjoint by construction)
	hotKeys     int
	hotProb     float64
	originDelay sim.Time // one-way propagation to the origin
	dupEvery    int      // origin retransmits every Nth response (0: off)
	spoofEvery  int      // attacker forges a response every Nth own request (0: off)
	seed        uint64
	obsReg      *obs.Registry // nil: metrics off (trioRig semantics: series rebind to the latest rig)
}

// rpcClient is a closed-loop caller: request, wait for the reply, issue the
// next. Latency samples are classified by how the reply was produced —
// origin (uncached), cache hit, or coalesced-fanout replica.
type rpcClient struct {
	rig       *netrpcRig
	c         netrpc.Client
	send      func([]byte)
	rng       *sim.RNG
	done      int
	sentAt    sim.Time
	inflight  uint64 // rpc id awaited, 0 when idle
	uncached  sim.Sample
	cached    sim.Sample
	coalesced sim.Sample
	corrupted int
	frame     packet.Frame
}

type netrpcRig struct {
	eng     *sim.Engine
	router  *trio.Router
	svc     *netrpc.Service
	origin  *netrpc.Origin
	clients []*rpcClient
	cfg     netrpcCfg
	keys    []uint16 // method ids with pairwise-distinct cache slots
	spoofs  int      // forged responses injected on a client port
	dups    int      // origin retransmits injected on the server port
}

// slotDisjointKeys picks method ids whose derived rpc ids occupy pairwise
// distinct cache slots, so the workload never exercises the (separately
// tested) collision-bypass path and the instruction accounting is exact.
func slotDisjointKeys(n, slots int) []uint16 {
	used := map[uint64]bool{}
	var keys []uint16
	for m := uint16(1); len(keys) < n; m++ {
		id := netrpc.RPCKey(m, methodArgs(m))
		slot := id & uint64(slots-1)
		if used[slot] {
			continue
		}
		used[slot] = true
		keys = append(keys, m)
	}
	return keys
}

func methodArgs(method uint16) []byte {
	var args [8]byte
	binary.BigEndian.PutUint64(args[:], uint64(method)*0x51ED_270B)
	return args[:]
}

// refPayload recomputes the origin's deterministic result for a method —
// what every reply must carry, spoofers notwithstanding.
func refPayload(method uint16, respBytes int) []byte {
	cell := make([]byte, respBytes)
	copy(cell, methodArgs(method))
	return netrpc.DefaultCompute(method, cell, respBytes)
}

func newNetRPCRig(cfg netrpcCfg) *netrpcRig {
	eng := sim.NewEngine()
	r := trio.New(eng, trio.Config{NumPFEs: 1})
	p := r.PFE(0)
	svc, err := netrpc.Install(p, netrpc.Config{Slots: 4096})
	if err != nil {
		panic(err)
	}
	rig := &netrpcRig{eng: eng, router: r, svc: svc,
		origin: &netrpc.Origin{}, cfg: cfg,
		keys: slotDisjointKeys(cfg.keys, 4096)}
	r.Instrument(cfg.obsReg, nil, nil)
	svc.RegisterObs(cfg.obsReg)

	// Origin server behind a slow cable (one-way cfg.originDelay each
	// direction): requests the cache forwards upstream pay the full metro
	// round trip; cache hits never leave the rack.
	slow := netsim.DefaultLinkConfig()
	slow.Propagation = cfg.originDelay
	var fromOrigin func([]byte)
	fromOrigin = r.Cable(0, p.Cfg.NumPorts-1, slow, slow, netsim.NewSink(eng, func(_ int, f []byte, _ sim.Time) {
		resp := rig.origin.Handle(f)
		if resp == nil {
			return
		}
		fromOrigin(resp)
		// Fault injection: the origin's transport retransmits a fraction
		// of responses — the duplicate reaches a served entry and must be
		// rejected by the pending-only adoption rule.
		if cfg.dupEvery > 0 && rig.origin.Served%cfg.dupEvery == 0 {
			rig.dups++
			fromOrigin(resp)
		}
	}), 0).Send

	// Clients on ports 1..clients (port == client id — the cache addresses
	// replies by forwarding to port client_id).
	rx := netsim.NewSink(eng, func(i int, f []byte, at sim.Time) { rig.clients[i].onFrame(f, at) })
	for i := 0; i < cfg.clients; i++ {
		id := i + 1
		// Distinct per-client cable lengths (+id ns) keep any two clients'
		// frames from ever arriving at the exact same nanosecond, so the
		// tables never hinge on how the engine orders same-instant
		// deliveries to different ports.
		linkCfg := netsim.DefaultLinkConfig()
		linkCfg.Propagation += sim.Time(id) * sim.Nanosecond
		c := &rpcClient{
			rig: rig, rng: sim.NewRNG(cfg.seed, uint64(id)),
			c: netrpc.Client{ID: uint16(id), Spec: packet.UDPSpec{
				SrcIP: [4]byte{10, 0, 0, byte(id)}, DstIP: [4]byte{10, 0, 0, 200}, SrcPort: 7000,
			}},
		}
		c.send = r.Cable(0, id, linkCfg, linkCfg, rx, i).Send
		rig.clients = append(rig.clients, c)
	}
	return rig
}

func (c *rpcClient) pickMethod() uint16 {
	cfg := c.rig.cfg
	if c.rng.Float64() < cfg.hotProb {
		return c.rig.keys[c.rng.IntN(cfg.hotKeys)]
	}
	return c.rig.keys[c.rng.IntN(len(c.rig.keys))]
}

func (c *rpcClient) start() { c.issue() }

func (c *rpcClient) issue() {
	if c.done >= c.rig.cfg.requests {
		return
	}
	// Fault injection: client 1 doubles as the attacker, forging a
	// response for a hot key before every spoofEvery-th of its own calls.
	// The forgery arrives on a client-facing port and must die at the gate.
	cfg := c.rig.cfg
	if cfg.spoofEvery > 0 && c.c.ID == 1 && c.done%cfg.spoofEvery == 0 {
		m := c.rig.keys[c.rng.IntN(cfg.hotKeys)]
		forged := packet.BuildNetRPC(c.c.Spec, packet.NetRPC{
			Op: packet.NetRPCResponse, ClientID: c.c.ID, Method: m,
			RPCID: netrpc.RPCKey(m, methodArgs(m)),
		}, bytes.Repeat([]byte{0x66}, 32))
		c.rig.spoofs++
		c.send(forged)
	}
	m := c.pickMethod()
	c.inflight = netrpc.RPCKey(m, methodArgs(m))
	c.sentAt = c.rig.eng.Now()
	c.send(c.c.Request(m, methodArgs(m)))
}

func (c *rpcClient) onFrame(frame []byte, at sim.Time) {
	f := &c.frame
	if err := packet.DecodeInto(f, frame); err != nil {
		return
	}
	var h packet.NetRPC
	rest, err := h.Unmarshal(f.Payload)
	if err != nil || h.Op != packet.NetRPCResponse || h.RPCID != c.inflight {
		return
	}
	c.inflight = 0
	lat := float64(at-c.sentAt) / float64(sim.Microsecond)
	switch {
	case h.Flags&packet.NetRPCFlagCoalesced != 0:
		c.coalesced.Add(lat)
	case h.Flags&packet.NetRPCFlagCached != 0:
		c.cached.Add(lat)
	default:
		c.uncached.Add(lat)
	}
	if !bytes.Equal(rest[:h.PayloadLen], refPayload(h.Method, len(rest))) {
		c.corrupted++
	}
	c.done++
	c.issue()
}

func (r *netrpcRig) run() {
	for _, c := range r.clients {
		c.start()
	}
	done := func() bool {
		for _, c := range r.clients {
			if c.done < r.cfg.requests {
				return false
			}
		}
		return true
	}
	deadline := sim.Time(r.cfg.requests)*100*r.cfg.originDelay + sim.Second
	for !done() {
		if !r.eng.Step() || r.eng.Now() > deadline {
			break
		}
	}
}

func runNetRPC(p Params) ([]*Table, error) {
	cfg := netrpcCfg{
		clients: 8, requests: 400, keys: 64, hotKeys: 4, hotProb: 0.5,
		originDelay: 10 * sim.Microsecond, dupEvery: 7, spoofEvery: 5,
		seed: p.seed(), obsReg: p.Obs,
	}
	if p.Quick {
		cfg.requests = 100
	}
	p.logf("netrpc: %d clients x %d closed-loop requests over %d keys", cfg.clients, cfg.requests, cfg.keys)
	rig := newNetRPCRig(cfg)
	rig.run()

	st := rig.svc.Stats()
	total := int(st.Requests())
	wantTotal := cfg.clients * cfg.requests
	if total != wantTotal {
		return nil, fmt.Errorf("netrpc: cache classified %d requests, rig sent %d", total, wantTotal)
	}
	if st.Bypass != 0 {
		return nil, fmt.Errorf("netrpc: %d bypasses on a slot-disjoint workload", st.Bypass)
	}

	var uncached, cached, coalesced sim.Sample
	corrupted := 0
	for _, c := range rig.clients {
		uncached.Merge(&c.uncached)
		cached.Merge(&c.cached)
		coalesced.Merge(&c.coalesced)
		corrupted += c.corrupted
	}
	if uncached.N() == 0 || cached.N() == 0 || coalesced.N() == 0 {
		return nil, fmt.Errorf("netrpc: degenerate workload (uncached %d / cached %d / coalesced %d)",
			uncached.N(), cached.N(), coalesced.N())
	}
	speedupCached := uncached.Mean() / cached.Mean()
	speedupCoal := uncached.Mean() / coalesced.Mean()
	if speedupCached < 2 {
		return nil, fmt.Errorf("netrpc: cached replies only %.2fx faster than uncached (acceptance floor 2x)", speedupCached)
	}

	t1 := &Table{
		Title:   "NetRPC in-network aggregation/caching: origin offload",
		Columns: []string{"Metric", "Value"},
		Notes: []string{
			"Requests are slot-disjoint by construction; the collision-bypass path is exercised by unit tests.",
		},
	}
	t1.AddRow("RPC requests issued", total)
	t1.AddRow("Distinct RPCs (keys)", len(rig.keys))
	t1.AddRow("Origin executions (claims)", st.Claims)
	t1.AddRow("Served from PFE cache (hits)", st.Hits)
	t1.AddRow("Coalesced into pending entries", st.Coalesced)
	t1.AddRow("Coalesced-fanout replies", st.Fanout)
	t1.AddRow("Origin executions saved", fmt.Sprintf("%d (%.1f%%)",
		total-int(st.Claims), 100*float64(total-int(st.Claims))/float64(total)))

	t2 := &Table{
		Title:   "NetRPC reply latency by path",
		Columns: []string{"Path", "Replies", "Mean us", "p95 us"},
		Notes: []string{
			fmt.Sprintf("Origin sits behind a %v one-way link; clients are in-rack (500 ns).", cfg.originDelay),
			"Acceptance: cached replies at least 2x faster than uncached.",
		},
	}
	t2.AddRow("Uncached (origin round trip)", uncached.N(),
		fmt.Sprintf("%.2f", uncached.Mean()), fmt.Sprintf("%.2f", uncached.Percentile(95)))
	t2.AddRow("Cache hit (in-PFE replay)", cached.N(),
		fmt.Sprintf("%.2f", cached.Mean()), fmt.Sprintf("%.2f", cached.Percentile(95)))
	t2.AddRow("Coalesced (fanout replica)", coalesced.N(),
		fmt.Sprintf("%.2f", coalesced.Mean()), fmt.Sprintf("%.2f", coalesced.Percentile(95)))
	t2.AddRow("Speedup cached vs uncached", "", fmt.Sprintf("%.1fx", speedupCached), "")
	t2.AddRow("Speedup coalesced vs uncached", "", fmt.Sprintf("%.1fx", speedupCoal), "")

	cost := netrpc.Config{Slots: 4096}.Cost()
	measured := rig.router.PFE(0).Stats().Instructions
	expected := uint64(st.Claims)*uint64(cost.InstrClaim) +
		uint64(st.Hits)*uint64(cost.InstrServe) +
		uint64(st.Coalesced)*uint64(cost.InstrCoalesce) +
		uint64(st.Adopted)*uint64(cost.InstrAdopt) +
		uint64(st.Passthrough)*uint64(cost.InstrPassthrough) +
		uint64(rig.spoofs)*uint64(cost.InstrPoisonGate) +
		uint64(rig.dups)*uint64(cost.InstrPoisonDup)
	if expected != measured {
		return nil, fmt.Errorf("netrpc: cost model predicts %d instructions, PFE retired %d", expected, measured)
	}
	t3 := &Table{
		Title:   "NetRPC instruction-exact cost model",
		Columns: []string{"Metric", "Model", "Measured"},
		Notes:   []string{"Dynamic total is per-path model cost x measured path counts; exact match is an error check, not a fit."},
	}
	t3.AddRow("Static program size (instructions)", cost.StaticInstructions, rig.svc.Program.Len())
	t3.AddRow("Claim path (instr/pkt)", cost.InstrClaim, cost.InstrClaim)
	t3.AddRow("Serve path (instr/pkt)", cost.InstrServe, cost.InstrServe)
	t3.AddRow("Coalesce path (instr/pkt)", cost.InstrCoalesce, cost.InstrCoalesce)
	t3.AddRow("Adopt path (instr/pkt)", cost.InstrAdopt, cost.InstrAdopt)
	t3.AddRow("Dynamic instructions (total)", expected, measured)

	if int(st.Poisoned) != rig.spoofs+rig.dups {
		return nil, fmt.Errorf("netrpc: poisoned counter %d, injected %d spoofs + %d retransmits",
			st.Poisoned, rig.spoofs, rig.dups)
	}
	if corrupted != 0 {
		return nil, fmt.Errorf("netrpc: %d corrupted payloads delivered", corrupted)
	}
	t4 := &Table{
		Title:   "NetRPC cache-poisoning fault injection",
		Columns: []string{"Metric", "Value"},
		Notes: []string{
			"Spoofs arrive on a client-facing port (gate reject); retransmits hit served entries (pending-only adoption).",
			"Every delivered payload is checked against the reference result: corruption must be zero.",
		},
	}
	t4.AddRow("Forged responses (client port)", rig.spoofs)
	t4.AddRow("Origin retransmits (server port)", rig.dups)
	t4.AddRow("Poisoned counter (rejected)", st.Poisoned)
	t4.AddRow("Corrupted payloads delivered", corrupted)

	return []*Table{t1, t2, t3, t4}, nil
}
