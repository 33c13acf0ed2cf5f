// Package netrpc implements NetRPC-style in-network RPC aggregation and
// caching as a Microcode program on the PFE (ROADMAP item 4a).
//
// The service sits between RPC clients and an origin server and gives
// idempotent RPCs three in-network accelerations, generalizing hostagg's
// host-side ReplayWindow (internal/replay) into a PFE-resident cache:
//
//   - Served-result replay: a request whose rpc_id matches a served cache
//     entry is rewritten into the response in place — the result payload is
//     read from shared memory into the packet head, op/flags flipped, and
//     the packet turned around to the requesting client without ever
//     reaching the origin. Hit counting is an RMW Packet/Byte Counter per
//     slot (§3.2's CounterIncPhys).
//   - Request coalescing: a request that matches a *pending* entry (first
//     request forwarded upstream, response not yet back) is absorbed into
//     the entry's waiter bitmask and consumed. When the response arrives,
//     the PPE thread forwards it to the original requester and stages the
//     remaining waiter mask in a register; the MQSS replication hook
//     (pfe.MicrocodeApp.Finish) then emits one flagged replica per waiter —
//     N requests cost the origin one execution.
//   - TTL aging: the hash engine's REF flags plus §5 timer threads expire
//     idle entries, exactly the straggler-detection machinery, repurposed.
//
// The request table is keyed by the wire header's 64-bit rpc_id through the
// hash engine (key → slot), with a direct-mapped slot record in SRAM
// (tag/state/waiters) and the fixed-size result payload in DRAM. A slot
// collision between two live RPCs degrades gracefully: the loser bypasses
// the cache and is forwarded upstream unserved (counted, never wrong).
//
// Cache poisoning is rejected structurally: responses are only accepted
// from the server-facing port, and only for entries in the pending state —
// a spoofed or duplicate response for a free or served entry is dropped and
// counted. See DESIGN.md §11 for the full application model and the
// deviations from NetRPC (Zhao et al., the software-defined in-network
// caching framework this borrows its name from).
package netrpc

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trio/smem"
)

// Packet geometry the program is compiled against: the netrpc header sits
// at byte 42 (Ethernet 14 + IPv4 20 + UDP 8); field offsets follow
// packet.NetRPC*Off. The 32-byte slot record stages at LMem 1024, above the
// 192-byte head.
const (
	hdrBase   = 42
	opOff     = hdrBase + packet.NetRPCOpOff
	flagsOff  = hdrBase + packet.NetRPCFlagsOff
	clientOff = hdrBase + packet.NetRPCClientOff
	plenOff   = hdrBase + packet.NetRPCPlenOff
	rpcOff    = hdrBase + packet.NetRPCIDOff
	payOff    = hdrBase + packet.NetRPCPayloadOff

	recBytes = 32   // slot record: tag(8) state(8) waiters(8) reserved(8)
	recStage = 1024 // LMem staging window for the record
)

// Register conventions shared with the dispatcher hooks: the Setup hand-off
// loads the ingress port into regInPort, and the Finish hook reads the
// staged fanout mask from regFan (nonzero only on the response-adopt path).
const (
	regEgress = 12
	regInPort = 14
	regFan    = 20
)

// Global counter indices (16-byte RMW Packet/Byte Counters at CtrBase).
const (
	ctrHits = iota
	ctrCoalesced
	ctrClaims
	ctrBypass
	ctrPoison
	ctrAdopted
	ctrPassthrough
	numCtrs
)

// Config parameterizes the netrpc service program.
type Config struct {
	Slots int // request-table slots, power of two
}

// cellBytes is the fixed result-payload size: every response carries
// exactly this many payload bytes and clients pad requests to match, so a
// cache hit can rewrite the request into the response in place ("fixed-size
// RPC cells"). A multiple of 8 within one 64-byte XTXN.
const cellBytes = 32

// The cell sits inside the head: this constant overflows if it does not.
const _ = uint(pfe.HeadBytes - payOff - cellBytes)

func (cfg Config) check() error {
	if cfg.Slots <= 0 || cfg.Slots&(cfg.Slots-1) != 0 {
		return fmt.Errorf("netrpc: slots must be a power of two, got %d", cfg.Slots)
	}
	return nil
}

// source generates the program text for a configuration. One begin/end
// block is one VLIW instruction; loads and the conditions that test them
// are split across blocks because conditions read pre-instruction state.
func source(cfg Config, recBase, bufBase, ctrBase, hitCtrBase uint64, serverPort int) string {
	return fmt.Sprintf(`
program netrpc;

define SLOT_MASK  = %d;
define REC_BASE   = %d;
define BUF_BASE   = %d;
define CTR_BASE   = %d;
define HCTR_BASE  = %d;
define RESP_BYTES = %d;
define SRV_PORT   = %d;
define REC_BYTES  = %d;
define RS         = %d;   // record staging base in local memory
define OP_OFF     = %d;
define FLAGS_OFF  = %d;
define CLIENT_OFF = %d;
define PLEN_OFF   = %d;
define RPC_OFF    = %d;
define PAY_OFF    = %d;
define CTR_HIT    = %d;
define CTR_COAL   = %d;
define CTR_CLAIM  = %d;
define CTR_BYP    = %d;
define CTR_POIS   = %d;
define CTR_ADOPT  = %d;
define CTR_PASS   = %d;

reg rpc    = r2;
reg slot   = r3;
reg rec    = r4;
reg buf    = r5;
reg client = r6;
reg state  = r7;
reg tmp    = r8;
reg bit    = r10;
reg egress = r12;   // every forward names its own egress port (EgressReg)
reg op     = r13;
reg inport = r14;   // ingress port, the dispatcher's Setup hand-off
reg fan    = r20;   // waiter mask staged for the MQSS replication hook

// netrpc_hdr_t sits at byte 42: op at 42, flags at 43, client_id at 44,
// payload_len at 48, rpc_id at 50; the payload starts at byte 58.

parse:
begin
    op     = lmem8[OP_OFF];
    client = lmem16[CLIENT_OFF];
    goto parse2;
end

parse2:
begin
    rpc = lmem64[RPC_OFF];
    if (op == 2) { goto resp_gate; }
    if (op == 1) { goto req_look; }
    exit(drop);
end

// ---- request path ----

req_look:
begin
    hash_lookup(rpc);
    if (hit) { goto req_hit; }
    goto req_miss;
end

// Miss: claim the direct-mapped slot if it is free; a slot held by another
// live RPC sends this one around the cache (bypass) instead of evicting.
req_miss:
begin
    slot = rpc & SLOT_MASK;
    goto req_miss2;
end

req_miss2:
begin
    rec = REC_BASE + slot * REC_BYTES;
    goto req_miss3;
end

req_miss3:
begin
    mem_read(rec, REC_BYTES, RS);
    goto req_miss4;
end

req_miss4:
begin
    tmp = lmem64[RS];
    goto req_miss5;
end

req_miss5:
begin
    if (tmp != 0) { goto bypass; }
    goto claim;
end

// Record: word0 rpc tag, word1 state (1 pending, 2 served), word2 waiters.
claim:
begin
    lmem64[RS]     = rpc;
    lmem64[RS + 8] = 1;
    goto claim2;
end

claim2:
begin
    bit = 1 << client;
    lmem64[RS + 16] = bit;
    goto claim3;
end

claim3:
begin
    lmem64[RS + 24] = 0;
    async mem_write(rec, REC_BYTES, RS);
    goto claim4;
end

claim4:
begin
    hash_insert(rpc, slot);
    goto claim5;
end

claim5:
begin
    counter_inc(CTR_BASE + CTR_CLAIM, 1);
    egress = SRV_PORT;
    exit(forward);
end

// Hit: the hash value names the slot; the record tag re-verifies it (the
// hash entry may outlive a reclaimed slot).
req_hit:
begin
    slot = rr;
    goto req_hit2;
end

req_hit2:
begin
    rec = REC_BASE + slot * REC_BYTES;
    goto req_hit3;
end

req_hit3:
begin
    mem_read(rec, REC_BYTES, RS);
    goto req_hit4;
end

req_hit4:
begin
    tmp = lmem64[RS];
    goto req_hit5;
end

req_hit5:
begin
    if (tmp != rpc) { goto bypass; }
    goto req_state;
end

req_state:
begin
    state = lmem64[RS + 8];
    goto req_state2;
end

req_state2:
begin
    if (state == 2) { goto serve; }
    if (state == 1) { goto coalesce; }
    goto bypass;
end

// Pending entry: absorb this client into the waiter mask and consume the
// request — it never leaves the PFE.
coalesce:
begin
    bit = 1 << client;
    tmp = lmem64[RS + 16] | bit;
    goto coalesce2;
end

coalesce2:
begin
    lmem64[RS + 16] = tmp;
    async mem_write(rec, REC_BYTES, RS);
    goto coalesce3;
end

coalesce3:
begin
    counter_inc(CTR_BASE + CTR_COAL, 1);
    exit(consume);
end

// Served entry: rewrite the request into the response in place and turn it
// around to the requester.
serve:
begin
    buf = BUF_BASE + slot * RESP_BYTES;
    goto serve2;
end

serve2:
begin
    mem_read(buf, RESP_BYTES, PAY_OFF);
    goto serve3;
end

serve3:
begin
    tmp = HCTR_BASE + slot * 16;
    goto serve4;
end

serve4:
begin
    counter_inc(tmp, RESP_BYTES);
    lmem8[OP_OFF]    = 2;
    lmem8[FLAGS_OFF] = 1;
    goto serve5;
end

serve5:
begin
    counter_inc(CTR_BASE + CTR_HIT, RESP_BYTES);
    lmem16[PLEN_OFF] = RESP_BYTES;
    egress = client;
    exit(forward);
end

bypass:
begin
    counter_inc(CTR_BASE + CTR_BYP, 1);
    egress = SRV_PORT;
    exit(forward);
end

// ---- response path ----

// Responses are only trusted from the server-facing port: a spoofed
// response arriving on a client port is dropped and counted.
resp_gate:
begin
    if (inport != SRV_PORT) { goto poison; }
    goto resp_look;
end

poison:
begin
    counter_inc(CTR_BASE + CTR_POIS, 1);
    exit(drop);
end

resp_look:
begin
    hash_lookup(rpc);
    if (!hit) { goto pass; }
    goto resp_slot;
end

// Untracked response (bypassed request, or the entry aged out): forward it
// to its client untouched.
pass:
begin
    counter_inc(CTR_BASE + CTR_PASS, 1);
    egress = client;
    exit(forward);
end

resp_slot:
begin
    slot = rr;
    goto resp_rec;
end

resp_rec:
begin
    rec = REC_BASE + slot * REC_BYTES;
    goto resp_read;
end

resp_read:
begin
    mem_read(rec, REC_BYTES, RS);
    goto resp_tag;
end

resp_tag:
begin
    tmp = lmem64[RS];
    goto resp_tag2;
end

resp_tag2:
begin
    if (tmp != rpc) { goto pass; }
    goto resp_state;
end

resp_state:
begin
    state = lmem64[RS + 8];
    goto resp_state2;
end

// Only a pending entry adopts a response: a duplicate or unsolicited
// response for a served entry cannot overwrite the cached result.
resp_state2:
begin
    if (state != 1) { goto poison; }
    goto adopt;
end

adopt:
begin
    buf = BUF_BASE + slot * RESP_BYTES;
    goto adopt2;
end

adopt2:
begin
    mem_write(buf, RESP_BYTES, PAY_OFF);
    goto adopt3;
end

// The requester's own bit is cleared from the staged fanout mask (claim
// guarantees it is set); the thread forwards the response to the requester
// and the replication hook replays it to everyone else.
adopt3:
begin
    bit = 1 << client;
    fan = lmem64[RS + 16] ^ bit;
    goto adopt4;
end

adopt4:
begin
    lmem64[RS + 8]  = 2;
    lmem64[RS + 16] = 0;
    goto adopt5;
end

adopt5:
begin
    async mem_write(rec, REC_BYTES, RS);
    egress = client;
    goto adopt6;
end

adopt6:
begin
    counter_inc(CTR_BASE + CTR_ADOPT, 1);
    exit(forward);
end
`,
		cfg.Slots-1, recBase, bufBase, ctrBase, hitCtrBase, cellBytes, serverPort,
		recBytes, recStage,
		opOff, flagsOff, clientOff, plenOff, rpcOff, payOff,
		16*ctrHits, 16*ctrCoalesced, 16*ctrClaims, 16*ctrBypass,
		16*ctrPoison, 16*ctrAdopted, 16*ctrPassthrough,
	)
}

// Program assembles the netrpc service program for cfg against the given
// shared-memory bases. Exported so program-level DSE and the dispatch
// benchmarks can build variants without provisioning a PFE.
func Program(cfg Config, recBase, bufBase, ctrBase, hitCtrBase uint64, serverPort int) (*microcode.Program, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	prog, err := microcode.Assemble(source(cfg, recBase, bufBase, ctrBase, hitCtrBase, serverPort))
	if err != nil {
		return nil, fmt.Errorf("netrpc: assembling: %w", err)
	}
	return prog, nil
}

// The program's eight packet paths, in the order costScript walks them.
const (
	pathClaim       = iota // miss: claim the slot, forward upstream
	pathCoalesce           // hit on a pending entry: absorb, consume
	pathBypass             // miss on a slot another RPC holds: around the cache
	pathPoisonGate         // response on a client-facing port: dropped
	pathPassthrough        // response for an untracked RPC: forwarded unchanged
	pathAdopt              // response for a pending entry: adopted, fanned out
	pathPoisonDup          // response for a served entry: dropped
	pathServe              // hit on a served entry: replayed in place
	numPaths
)

// costScript is one packet per path, each finding the table as the ones
// before it left it: rpc 0x1_0007 takes slot 7 under every slot mask and
// 0x2_0007 collides with it. A packet arrives on its client's port, or on
// the origin-facing one when server is set.
var costScript = [numPaths]struct {
	op     uint8
	client uint16
	rpc    uint64
	server bool
}{
	{packet.NetRPCRequest, 1, 0x1_0007, false},
	{packet.NetRPCRequest, 2, 0x1_0007, false},
	{packet.NetRPCRequest, 3, 0x2_0007, false},
	{packet.NetRPCResponse, 3, 0x1_0007, false},
	{packet.NetRPCResponse, 3, 0x2_0007, true},
	{packet.NetRPCResponse, 1, 0x1_0007, true},
	{packet.NetRPCResponse, 1, 0x1_0007, true},
	{packet.NetRPCRequest, 4, 0x1_0007, false},
}

// Cost is one configuration's program length and the instructions one
// packet retires on each path exp_netrpc prices.
type Cost struct {
	StaticInstructions                    int
	InstrClaim, InstrServe, InstrCoalesce int
	InstrAdopt, InstrPassthrough          int
	InstrPoisonGate, InstrPoisonDup       int
}

// Cost reads cfg's per-path cost off one run of costScript (pathStats).
func (cfg Config) Cost() (Cost, error) {
	st, static, err := cfg.pathStats()
	if err != nil {
		return Cost{}, err
	}
	n := func(path int) int { return int(st[path].Instructions) }
	return Cost{StaticInstructions: static,
		InstrClaim: n(pathClaim), InstrServe: n(pathServe), InstrCoalesce: n(pathCoalesce),
		InstrAdopt: n(pathAdopt), InstrPassthrough: n(pathPassthrough),
		InstrPoisonGate: n(pathPoisonGate), InstrPoisonDup: n(pathPoisonDup)}, nil
}

// pathStats runs costScript through cfg's compiled program
// (microcode.RunPackets), wired as Install wires a default PFE (the last
// port faces the origin; Setup loads the ingress port) with the pools laid
// end to end from address 0. It returns each path's thread statistics and
// the program length.
func (cfg Config) pathStats() ([]microcode.Stats, int, error) {
	srv := pfe.DefaultConfig().NumPorts - 1
	rec, hit := uint64(cfg.Slots)*recBytes, uint64(cfg.Slots)*16
	prog, err := Program(cfg, 0, rec+numCtrs*16+hit, rec, rec+numCtrs*16, srv)
	if err != nil {
		return nil, 0, err
	}
	frames := make([][]byte, numPaths)
	for path, pk := range costScript {
		frames[path] = packet.BuildNetRPC(packet.UDPSpec{},
			packet.NetRPC{Op: pk.op, ClientID: pk.client, RPCID: pk.rpc}, make([]byte, cellBytes))
	}
	st, err := microcode.RunPackets(prog, "parse", frames, pfe.HeadBytes, func(path int, th *microcode.Thread) {
		th.Regs[regInPort] = uint64(costScript[path].client)
		if costScript[path].server {
			th.Regs[regInPort] = uint64(srv)
		}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("netrpc: cost run: %w", err)
	}
	return st, prog.Len(), nil
}

// Service is an installed netrpc cache.
type Service struct {
	App        *pfe.MicrocodeApp
	Program    *microcode.Program
	PFE        *pfe.PFE
	RecBase    uint64
	BufBase    uint64
	CtrBase    uint64
	HitCtrBase uint64

	cfg    Config
	fanout atomic.Uint64
}

// Stats is a control-plane snapshot of the service counters. The request
// counters live in shared memory (the program increments them with RMW
// counter XTXNs); Fanout is the replication hook's host-side tally.
type Stats struct {
	Hits        uint64 // requests served from the cache
	Coalesced   uint64 // requests absorbed into a pending entry
	Claims      uint64 // requests that installed a pending entry
	Bypass      uint64 // requests sent around the cache (slot collision)
	Poisoned    uint64 // responses rejected (wrong port, duplicate, unsolicited)
	Adopted     uint64 // responses adopted into the cache
	Passthrough uint64 // responses forwarded for untracked requests
	Fanout      uint64 // replicated replies delivered to coalesced waiters
}

// Requests reports the total requests the service classified.
func (st Stats) Requests() uint64 { return st.Hits + st.Coalesced + st.Claims + st.Bypass }

func (s *Service) ctr(idx int) uint64 {
	n, _ := s.PFE.Mem.Counter(s.CtrBase + uint64(16*idx))
	return n
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Hits:        s.ctr(ctrHits),
		Coalesced:   s.ctr(ctrCoalesced),
		Claims:      s.ctr(ctrClaims),
		Bypass:      s.ctr(ctrBypass),
		Poisoned:    s.ctr(ctrPoison),
		Adopted:     s.ctr(ctrAdopted),
		Passthrough: s.ctr(ctrPassthrough),
		Fanout:      s.fanout.Load(),
	}
}

// SlotHits reads the per-slot RMW hit counter (packets, bytes).
func (s *Service) SlotHits(slot int) (uint64, uint64) {
	return s.PFE.Mem.Counter(s.HitCtrBase + uint64(16*slot))
}

// Install provisions the slot records, result buffers, and counter pools in
// p's shared memory, assembles and compiles the service program through the
// v2 verify/compile pipeline, installs it as p's application, and (when
// cfg.AgePeriod > 0) starts the aging timer threads.
func Install(p *pfe.PFE, cfg Config) (*Service, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	recBase := p.Mem.Alloc(smem.TierSRAM, uint64(cfg.Slots)*recBytes)
	ctrBase := p.Mem.Alloc(smem.TierSRAM, numCtrs*16)
	hitCtrBase := p.Mem.Alloc(smem.TierSRAM, uint64(cfg.Slots)*16)
	bufBase := p.Mem.Alloc(smem.TierDRAM, uint64(cfg.Slots)*cellBytes)
	// The PFE's last port faces the origin server: requests egress there,
	// and responses are only trusted from there.
	prog, err := Program(cfg, recBase, bufBase, ctrBase, hitCtrBase, p.Cfg.NumPorts-1)
	if err != nil {
		return nil, err
	}
	s := &Service{
		Program: prog, PFE: p,
		RecBase: recBase, BufBase: bufBase, CtrBase: ctrBase, HitCtrBase: hitCtrBase,
		cfg: cfg,
	}
	app := &pfe.MicrocodeApp{
		Program:   prog,
		Entry:     "parse",
		EgressReg: regEgress,
		Setup: func(th *microcode.Thread, ctx *pfe.Ctx) {
			th.Regs[regInPort] = uint64(ctx.Packet().Port)
		},
		Finish: s.finish,
	}
	if err := app.Compile(); err != nil {
		return nil, fmt.Errorf("netrpc: compiling: %w", err)
	}
	s.App = app
	p.SetApp(app)
	return s, nil
}

// finish is the MQSS replication hook: when the response-adopt path staged
// a nonzero waiter mask, replicate the forwarded response to every waiter,
// patching each replica's client_id and setting the coalesced flag.
func (s *Service) finish(th *microcode.Thread, ctx *pfe.Ctx, v microcode.Verdict) {
	if v != microcode.VerdictForward {
		return
	}
	fan := th.Regs[regFan]
	if fan == 0 {
		return
	}
	frame := ctx.FullFrame()
	for port := 0; fan != 0 && port < s.PFE.Cfg.NumPorts; port++ {
		if fan&(1<<port) == 0 {
			continue
		}
		fan &^= 1 << port
		rep := append([]byte(nil), frame...)
		rep[flagsOff] |= packet.NetRPCFlagCoalesced
		binary.BigEndian.PutUint16(rep[clientOff:], uint16(port))
		ctx.Emit(port, rep)
		s.fanout.Add(1)
	}
}
