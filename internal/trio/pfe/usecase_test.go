package pfe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/hasheng"
	"github.com/trioml/triogo/internal/trio/smem"
)

// The tests in this file run the paper's filtering, steering, sandboxing
// (§3.1) and per-flow telemetry (§7) use cases as Microcode programs on
// MicrocodeApp: every one goes through the same compiled engine, XTXN
// accounting and shared-memory model as the experiments.

// udpFrom builds a UDP frame from 10.0.0.src with the given source port and
// payload. The IPv4 source address sits at bytes 26..29, the UDP source port
// at 34..35 and the payload at 42.
func udpFrom(src byte, sport uint16, payload []byte) []byte {
	return packet.BuildUDP(packet.UDPSpec{
		SrcIP: [4]byte{10, 0, 0, src}, DstIP: [4]byte{10, 0, 1, 1},
		SrcPort: sport, DstPort: 80,
	}, payload)
}

// srcKey is the hash key a program forms with lmem32[26].
func srcKey(frame []byte) uint64 { return uint64(binary.BigEndian.Uint32(frame[26:30])) }

// mcRig is one PFE running a MicrocodeApp whose Setup hands the thread the
// packet length in r1 and base in r2.
type mcRig struct {
	eng  *sim.Engine
	pfe  *PFE
	app  *MicrocodeApp
	got  []delivered
	base uint64
}

func newMCRig(t *testing.T, src string, egress int, base func(p *PFE) uint64) *mcRig {
	t.Helper()
	r := &mcRig{eng: sim.NewEngine()}
	r.pfe = New(r.eng, Config{})
	r.pfe.SetOutput(collector(&r.got))
	if base != nil {
		r.base = base(r.pfe)
	}
	r.app = &MicrocodeApp{
		Program:    microcode.MustAssemble(src),
		EgressPort: egress,
		Setup: func(th *microcode.Thread, ctx *Ctx) {
			th.Regs[1] = uint64(len(ctx.Packet().Frame))
			th.Regs[2] = r.base
		},
	}
	if err := r.app.Compile(); err != nil {
		t.Fatal(err)
	}
	r.pfe.SetApp(r.app)
	return r
}

func (r *mcRig) send(flow uint64, frame []byte) {
	r.pfe.Inject(0, flow, frame)
	r.eng.Run()
}

func (r *mcRig) checkNoErrors(t *testing.T) {
	t.Helper()
	if r.app.Errors != 0 {
		t.Fatalf("microcode errors = %d (%v)", r.app.Errors, r.app.LastError)
	}
}

func allocCounters(n uint64) func(p *PFE) uint64 {
	return func(p *PFE) uint64 { return p.Mem.Alloc(smem.TierSRAM, 16*n) }
}

func arpFrame() []byte {
	f := make([]byte, 64)
	f[12], f[13] = 0x08, 0x06
	return f
}

// countThenFilter counts every packet, then forwards only IPv4.
const countThenFilter = `
program count_then_filter;
struct ether_t { dmac:48; smac:48; etype:16; };
layout ether : ether_t @ 0;
reg pkt_len = r1;
reg cnt = r2;
count: begin
    counter_inc(cnt, pkt_len);
    goto filter;
end
filter: begin
    if (ether.etype == 0x0800) { exit(forward); }
    exit(drop);
end
`

// payloadFilter counts and drops datagrams whose first payload byte is 0xFF.
const payloadFilter = `
program payload_filter;
reg pkt_len = r1;
reg cnt = r2;
check: begin
    if (lmem8[42] == 0xFF) { goto count; }
    exit(forward);
end
count: begin
    counter_inc(cnt, pkt_len);
    exit(drop);
end
`

// steer picks one of ports 2..5 from the UDP source port.
const steer = `
program steer;
reg port = r5;
s: begin
    port = (lmem8[35] & 3) + 2;
    exit(forward);
end
`

// greylist admits a source only once it has been seen.
const greylist = `
program greylist;
reg key = r3;
check: begin
    key = lmem32[26];
    hash_lookup(key);
    if (hit) { exit(forward); }
    goto remember;
end
remember: begin
    hash_insert(key, 1);
    exit(drop);
end
`

// perSource keeps a Packet/Byte Counter per source address.
const perSource = `
program per_source;
reg pkt_len = r1;
reg base = r2;
reg addr = r3;
index: begin
    addr = base + (lmem8[29] << 4);
    goto count;
end
count: begin
    counter_inc(addr, pkt_len);
    exit(forward);
end
`

// learnSource inserts each new source into the hash table and counts it once.
const learnSource = `
program learn;
reg pkt_len = r1;
reg newflows = r2;
reg key = r3;
lookup: begin
    key = lmem32[26];
    hash_lookup(key);
    if (hit) { exit(forward); }
    goto insert;
end
insert: begin
    hash_insert(key, pkt_len);
    goto note;
end
note: begin
    counter_inc(newflows, pkt_len);
    exit(forward);
end
`

// heavyHitter mirrors a source to port 7 once it passes HEAVY bytes.
const heavyHitter = `
program heavy;
define HEAVY = 10000;
reg pkt_len = r1;
reg base = r2;
reg addr = r3;
reg port = r5;
index: begin
    addr = base + (lmem8[29] << 4);
    goto count;
end
count: begin
    port = 1;
    counter_inc(addr, pkt_len);
    goto fetch;
end
fetch: begin
    mem_read(addr, 16, 320);
    goto judge;
end
judge: begin
    if (lmem64[328] > HEAVY) { goto flag; }
    exit(forward);
end
flag: begin
    port = 7;
    exit(forward);
end
`

// blocklist drops sources the hash table holds.
const blocklist = `
program blocklist;
reg key = r3;
s: begin
    key = lmem32[26];
    hash_lookup(key);
    if (hit) { exit(drop); }
    exit(forward);
end
`

// ttlRewrite decrements the IPv4 TTL in the head.
const ttlRewrite = `
program ttl;
s: begin
    lmem8[22] = lmem8[22] - 1;
    exit(forward);
end
`

func TestMicrocodeCounterPrecedesFilter(t *testing.T) {
	r := newMCRig(t, countThenFilter, 3, allocCounters(1))
	udp := udpFrom(1, 1000, []byte("payload"))
	r.send(1, udp)
	r.send(2, arpFrame())
	r.checkNoErrors(t)
	if len(r.got) != 1 || r.got[0].port != 3 || !bytes.Equal(r.got[0].frame, udp) {
		t.Fatalf("delivered = %+v, want the IPv4 frame on port 3", r.got)
	}
	pkts, byts := r.pfe.Mem.Counter(r.base)
	if pkts != 2 || byts != uint64(len(udp)+64) {
		t.Fatalf("counter = (%d,%d), want both packets counted before the filter", pkts, byts)
	}
}

func TestMicrocodePayloadFilterCountsDrops(t *testing.T) {
	r := newMCRig(t, payloadFilter, 1, allocCounters(1))
	for _, payload := range []string{"\x01ok", "\xFFbad", "\x02ok2"} {
		r.send(1, udpFrom(1, 1000, []byte(payload)))
	}
	r.checkNoErrors(t)
	if len(r.got) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(r.got))
	}
	if a, b := string(r.got[0].frame[42:]), string(r.got[1].frame[42:]); a != "\x01ok" || b != "\x02ok2" {
		t.Fatalf("downstream payloads = %q, %q", a, b)
	}
	if pkts, byts := r.pfe.Mem.Counter(r.base); pkts != 1 || byts != 42+4 {
		t.Fatalf("drop counter = (%d,%d), want (1,46)", pkts, byts)
	}
	if st := r.pfe.Stats(); st.Forwarded != 2 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMicrocodeEntryAndSetup(t *testing.T) {
	r := newMCRig(t, `
alt: begin
    exit(consume);
end
main: begin
    exit(drop);
end
`, 1, nil)
	// Entry resolves at compile time, so this app compiles afresh.
	r.app = &MicrocodeApp{Program: r.app.Program, Entry: "alt", Setup: r.app.Setup}
	var seenLen uint64
	r.app.Finish = func(th *microcode.Thread, ctx *Ctx, v microcode.Verdict) { seenLen = th.Regs[1] }
	r.pfe.SetApp(r.app)
	frame := udpFrom(1, 1000, []byte("x"))
	r.send(1, frame)
	r.checkNoErrors(t)
	if st := r.pfe.Stats(); st.Consumed != 1 || st.Dropped != 0 || len(r.got) != 0 {
		t.Fatalf("stats = %+v, want the packet consumed at entry alt", st)
	}
	if seenLen != uint64(len(frame)) {
		t.Fatalf("r1 = %d, want the packet length %d from Setup", seenLen, len(frame))
	}
}

func TestMicrocodeReinstallTakesEffect(t *testing.T) {
	pass := newMCRig(t, "s: begin exit(forward); end", 1, nil)
	block := &MicrocodeApp{Program: microcode.MustAssemble("s: begin exit(drop); end"), EgressPort: 1}
	frame := udpFrom(7, 7, []byte("x"))

	pass.send(1, frame)
	pass.pfe.SetApp(block)
	pass.send(1, frame)
	if len(pass.got) != 1 {
		t.Fatalf("delivered %d frames; the blocking program did not take effect", len(pass.got))
	}
	pass.pfe.SetApp(pass.app)
	pass.send(1, frame)
	if len(pass.got) != 2 {
		t.Fatalf("delivered %d frames; reinstalling the passing program did not restore forwarding", len(pass.got))
	}
	if block.Errors != 0 || pass.app.Errors != 0 {
		t.Fatalf("microcode errors = %d, %d", block.Errors, pass.app.Errors)
	}
}

func TestMicrocodeFieldSteeredEgressSpreadsFlows(t *testing.T) {
	r := newMCRig(t, steer, 1, nil)
	r.app.EgressReg = 5
	for i := 0; i < 200; i++ {
		r.pfe.Inject(0, uint64(i), udpFrom(1, uint16(1000+i), []byte("x")))
	}
	r.eng.Run()
	r.checkNoErrors(t)
	perPort := map[int]int{}
	for _, d := range r.got {
		perPort[d.port]++
	}
	for port := 2; port <= 5; port++ {
		if perPort[port] != 50 {
			t.Fatalf("per-port frames = %v, want 50 on each of ports 2..5", perPort)
		}
	}
	// One flow always leaves on one port.
	r.got = nil
	r.send(1, udpFrom(1, 1234, []byte("a")))
	r.send(2, udpFrom(1, 1234, []byte("b")))
	if len(r.got) != 2 || r.got[0].port != r.got[1].port {
		t.Fatalf("one flow split across ports: %+v", r.got)
	}
}

func TestMicrocodeGreylistStateAcrossPackets(t *testing.T) {
	// Hash-engine state persists across packets.
	r := newMCRig(t, greylist, 1, nil)
	r.send(1, udpFrom(1, 1000, []byte("first")))
	r.send(1, udpFrom(1, 1000, []byte("second")))
	r.send(2, udpFrom(2, 1000, []byte("other")))
	r.checkNoErrors(t)
	if len(r.got) != 1 || string(r.got[0].frame[42:]) != "second" {
		t.Fatalf("delivered = %+v, want only the second packet from the first source", r.got)
	}
	if r.pfe.Hash.Len() != 2 {
		t.Fatalf("hash records = %d, want one per source", r.pfe.Hash.Len())
	}
}

func TestMicrocodeRunawayLoopCountedPerPacket(t *testing.T) {
	// A loop that never exits exhausts the instruction budget: each packet
	// drops and counts, and the PFE keeps serving.
	r := newMCRig(t, "loop: begin goto loop; end", 1, nil)
	r.send(1, udpFrom(1, 1000, []byte("x")))
	r.send(2, udpFrom(1, 1000, []byte("y")))
	if r.app.Errors != 2 || !errors.Is(r.app.LastError, microcode.ErrBudget) {
		t.Fatalf("errors = %d, last error = %v, want 2 budget errors", r.app.Errors, r.app.LastError)
	}
	st := r.pfe.Stats()
	if st.Dropped != 2 || len(r.got) != 0 {
		t.Fatalf("stats = %+v, want both packets dropped", st)
	}
	if st.Instructions != 2*microcode.DefaultBudget {
		t.Fatalf("instructions = %d, want the budget charged per packet", st.Instructions)
	}
}

func TestMicrocodePerSourceCounters(t *testing.T) {
	r := newMCRig(t, perSource, 1, allocCounters(256))
	for i := 0; i < 5; i++ {
		r.send(1, udpFrom(1, 1000, make([]byte, 100)))
	}
	for i := 0; i < 3; i++ {
		r.send(2, udpFrom(2, 2000, make([]byte, 200)))
	}
	r.checkNoErrors(t)
	for _, c := range []struct {
		src         uint64
		pkts, bytes uint64
	}{{1, 5, 5 * 142}, {2, 3, 3 * 242}, {3, 0, 0}} {
		pkts, byts := r.pfe.Mem.Counter(r.base + 16*c.src)
		if pkts != c.pkts || byts != c.bytes {
			t.Fatalf("source %d counter = (%d,%d), want (%d,%d)", c.src, pkts, byts, c.pkts, c.bytes)
		}
	}
}

func TestMicrocodeNewFlowsLearnedOnce(t *testing.T) {
	r := newMCRig(t, learnSource, 1, allocCounters(1))
	a, b := udpFrom(1, 1000, make([]byte, 100)), udpFrom(2, 2000, make([]byte, 200))
	for i := 0; i < 5; i++ {
		r.send(1, a)
	}
	for i := 0; i < 3; i++ {
		r.send(2, b)
	}
	r.checkNoErrors(t)
	if len(r.got) != 8 {
		t.Fatalf("delivered %d frames, want all 8", len(r.got))
	}
	if pkts, _ := r.pfe.Mem.Counter(r.base); pkts != 2 {
		t.Fatalf("new flows = %d, want 2", pkts)
	}
	for _, f := range [][]byte{a, b} {
		if v, ok, _ := r.pfe.Hash.Lookup(0, srcKey(f)); !ok || v != uint64(len(f)) {
			t.Fatalf("record for %x = (%d,%v), want the first packet's length", srcKey(f), v, ok)
		}
	}
}

func TestMicrocodeHeavyHitterMirrored(t *testing.T) {
	r := newMCRig(t, heavyHitter, 1, allocCounters(256))
	r.app.EgressReg = 5
	elephant, mouse := udpFrom(1, 1000, make([]byte, 1400)), udpFrom(2, 2000, make([]byte, 100))
	for i := 0; i < 20; i++ {
		r.pfe.Inject(0, 1, elephant)
		r.pfe.Inject(0, 2, mouse)
	}
	r.eng.Run()
	r.checkNoErrors(t)
	mirrored := 0
	for _, d := range r.got {
		if d.port == 7 {
			mirrored++
			if !bytes.Equal(d.frame, elephant) {
				t.Fatal("a mouse packet was mirrored")
			}
		}
	}
	// 1442-byte packets: the 7th takes the elephant past 10,000 bytes.
	if len(r.got) != 40 || mirrored != 14 {
		t.Fatalf("delivered %d, mirrored %d; want 40 and 14", len(r.got), mirrored)
	}
}

// agingRig learns sources with learnSource while one timer thread ages out
// records whose REF flag stayed clear for a whole period; aged collects the
// keys it deleted. The idle source sends once at t=0, the active one every
// millisecond.
func agingRig(t *testing.T) (r *mcRig, idle, active uint64, aged map[uint64]bool) {
	t.Helper()
	r = newMCRig(t, learnSource, 1, allocCounters(1))
	idleFrame, activeFrame := udpFrom(1, 1000, []byte("idle")), udpFrom(2, 2000, []byte("active"))
	aged = map[uint64]bool{}
	stop := r.pfe.StartTimerThreads(1, 2*sim.Millisecond, func(ctx *Ctx, part int) {
		ctx.ScanHashPartition(part, 1, func(key, val uint64, ref bool) hasheng.ScanAction {
			if !ref {
				aged[key] = true
				return hasheng.ScanDelete
			}
			return hasheng.ScanClearRef
		})
	})
	r.pfe.Inject(0, 1, idleFrame)
	for ms := 0; ms < 10; ms++ {
		r.eng.At(sim.Time(ms)*sim.Millisecond, func() { r.pfe.Inject(0, 2, activeFrame) })
	}
	r.eng.RunUntil(10 * sim.Millisecond)
	stop.Stop()
	r.checkNoErrors(t)
	return r, srcKey(idleFrame), srcKey(activeFrame), aged
}

func TestMicrocodeIdleFlowAgesOut(t *testing.T) {
	r, idle, _, aged := agingRig(t)
	if !aged[idle] {
		t.Fatalf("idle source never aged out (aged = %v)", aged)
	}
	if _, ok := r.pfe.Hash.Ref(idle); ok {
		t.Fatal("idle source still in the table")
	}
}

func TestMicrocodeActiveFlowSurvivesAging(t *testing.T) {
	r, _, active, aged := agingRig(t)
	if aged[active] {
		t.Fatal("a source sending every millisecond aged out")
	}
	if _, ok := r.pfe.Hash.Ref(active); !ok {
		t.Fatal("active source missing from the table")
	}
	if pkts, _ := r.pfe.Mem.Counter(r.base); pkts != 2 {
		t.Fatalf("new flows = %d, want 2 (the active source learned once)", pkts)
	}
}

func TestMicrocodeBlocklistFromControlPlane(t *testing.T) {
	// The control plane quarantines a source by inserting it into the hash
	// table, and releases it by deleting the record.
	r := newMCRig(t, blocklist, 1, nil)
	abusive, polite := udpFrom(9, 3000, []byte("x")), udpFrom(1, 1000, []byte("y"))
	r.pfe.Hash.Insert(0, srcKey(abusive), 1)
	r.send(1, abusive)
	r.send(2, polite)
	if len(r.got) != 1 || !bytes.Equal(r.got[0].frame, polite) {
		t.Fatalf("delivered = %+v, want only the polite source", r.got)
	}
	r.pfe.Hash.Delete(0, srcKey(abusive))
	r.send(1, abusive)
	r.checkNoErrors(t)
	if len(r.got) != 2 {
		t.Fatal("released source still blocked")
	}
}

func TestMicrocodeHeadRewriteSurvivesForwarding(t *testing.T) {
	r := newMCRig(t, ttlRewrite, 1, nil)
	frame := udpFrom(1, 1000, make([]byte, 400)) // past the 192-byte head
	for i := 42; i < len(frame); i++ {
		frame[i] = byte(i)
	}
	r.send(1, append([]byte(nil), frame...))
	r.checkNoErrors(t)
	if len(r.got) != 1 {
		t.Fatalf("delivered %d frames", len(r.got))
	}
	want := append([]byte(nil), frame...)
	want[22]--
	if !bytes.Equal(r.got[0].frame, want) {
		t.Fatalf("TTL %d -> %d; frame differs beyond the TTL byte", frame[22], r.got[0].frame[22])
	}
}

// chainProgram builds n nested subroutines: top calls f0, fi calls fi+1.
func chainProgram(n int) *microcode.Program {
	br := func(kind microcode.ActionKind, target string) microcode.Branch {
		return microcode.Branch{Default: microcode.Action{Kind: kind, Target: target}}
	}
	instrs := []microcode.Instruction{
		{Label: "top", Br: br(microcode.ActCall, "f0")},
		{Label: "done", Br: microcode.Branch{Default: microcode.Action{Kind: microcode.ActExit, Verdict: microcode.VerdictForward}}},
	}
	for i := 0; i < n-1; i++ {
		instrs = append(instrs,
			microcode.Instruction{Label: fmt.Sprintf("f%d", i), Br: br(microcode.ActCall, fmt.Sprintf("f%d", i+1))},
			microcode.Instruction{Label: fmt.Sprintf("f%dret", i), Br: br(microcode.ActReturn, "")})
	}
	instrs = append(instrs, microcode.Instruction{Label: fmt.Sprintf("f%d", n-1), Br: br(microcode.ActReturn, "")})
	return microcode.MustProgram("chain", instrs)
}

// Every way a program can fail compilation leaves it unrun: without Compile,
// each packet drops and counts, no instruction is charged, and the cached
// compile error is what Compile reports. Where the interpreter would still
// execute the program, Interpret shows it doing so.
func TestMicrocodeAppRejectedProgramsNeverRun(t *testing.T) {
	mutatedLabel := microcode.MustAssemble("a: begin goto b; end\nb: begin exit(forward); end")
	mutatedLabel.Instrs[1].Label = "c"
	cases := []struct {
		name       string
		prog       *microcode.Program
		entry      string
		interpRuns bool
	}{
		{"fall_through_past_end", microcode.MustProgram("t", []microcode.Instruction{{
			Label: "only",
			Moves: []microcode.MoveOp{{Dst: microcode.R(3), A: microcode.Imm64(1), Fn: microcode.Pass}},
			Br:    microcode.Branch{Default: microcode.Action{Kind: microcode.ActFallthrough}},
		}}), "", true},
		{"call_at_last_instruction", microcode.MustAssemble("a: begin goto b; end\nb: begin call a; end"), "", true},
		{"recursion", microcode.MustAssemble("rec: begin call rec; end\ndone: begin exit(drop); end"), "", true},
		{"call_chain_too_deep", chainProgram(microcode.MaxCallDepth + 1), "", true},
		{"label_mutated_after_assembly", mutatedLabel, "", true},
		{"unknown_entry_label", microcode.MustAssemble("s: begin exit(forward); end"), "nowhere", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			p := New(eng, Config{})
			var got []delivered
			p.SetOutput(collector(&got))
			app := &MicrocodeApp{Program: c.prog, Entry: c.entry, EgressPort: 1}
			p.SetApp(app)
			p.Inject(0, 1, frameOfSize(100, 0))
			p.Inject(0, 2, frameOfSize(100, 0))
			eng.Run()
			if st := p.Stats(); len(got) != 0 || st.Dropped != 2 || st.Instructions != 0 {
				t.Fatalf("delivered %d, stats = %+v; want 2 drops and 0 instructions", len(got), st)
			}
			if app.Errors != 2 || app.LastError == nil || app.Compiled() != nil {
				t.Fatalf("errors = %d, last error = %v, compiled = %v", app.Errors, app.LastError, app.Compiled() != nil)
			}
			if err := app.Compile(); err != app.LastError {
				t.Fatalf("Compile() = %v, want the cached %v", err, app.LastError)
			}

			if !c.interpRuns {
				return
			}
			eng = sim.NewEngine()
			p = New(eng, Config{})
			p.SetOutput(func(int, []byte, sim.Time) {})
			p.SetApp(&MicrocodeApp{Program: c.prog, Entry: c.entry, EgressPort: 1, Interpret: true})
			p.Inject(0, 1, frameOfSize(100, 0))
			eng.Run()
			if p.Stats().Instructions == 0 {
				t.Fatal("the interpreter did not execute the program either")
			}
		})
	}
}

// The use-case programs take the same decisions, at the same instruction and
// XTXN cost, on the compiled engine and on the reference interpreter.
func TestMicrocodeUseCasesMatchInterpreter(t *testing.T) {
	var traffic [][]byte
	for i := 0; i < 40; i++ {
		payload := make([]byte, i*97%1500)
		if i%5 == 0 && len(payload) > 0 {
			payload[0] = 0xFF
		}
		traffic = append(traffic, udpFrom(byte(1+i%4), uint16(1000+i), payload))
		if i%7 == 0 {
			traffic = append(traffic, arpFrame())
		}
	}
	type outcome struct {
		got      []delivered
		stats    Stats
		records  int
		counters [][2]uint64
	}
	cases := []struct {
		name      string
		src       string
		egressReg int
		counters  uint64
	}{
		{"count_then_filter", countThenFilter, 0, 1},
		{"payload_filter", payloadFilter, 0, 1},
		{"steer", steer, 5, 0},
		{"greylist", greylist, 0, 0},
		{"per_source", perSource, 0, 256},
		{"learn", learnSource, 0, 1},
		{"heavy", heavyHitter, 5, 256},
		{"blocklist", blocklist, 0, 0},
		{"ttl", ttlRewrite, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(interpret bool) outcome {
				var base func(p *PFE) uint64
				if c.counters > 0 {
					base = allocCounters(c.counters)
				}
				r := newMCRig(t, c.src, 1, base)
				r.app.Interpret = interpret
				r.app.EgressReg = c.egressReg
				for _, f := range traffic {
					r.pfe.Inject(0, uint64(f[29]), append([]byte(nil), f...))
				}
				r.eng.Run()
				r.checkNoErrors(t)
				o := outcome{got: r.got, stats: r.pfe.Stats(), records: r.pfe.Hash.Len()}
				for i := uint64(0); i < c.counters; i++ {
					pkts, byts := r.pfe.Mem.Counter(r.base + 16*i)
					o.counters = append(o.counters, [2]uint64{pkts, byts})
				}
				return o
			}
			compiled, interpreted := run(false), run(true)
			if compiled.stats.Forwarded == 0 || compiled.stats.Instructions == 0 {
				t.Fatalf("stats = %+v; the traffic exercised nothing", compiled.stats)
			}
			if !reflect.DeepEqual(compiled, interpreted) {
				t.Fatalf("engines diverge:\ncompiled    %+v\ninterpreted %+v", compiled.stats, interpreted.stats)
			}
		})
	}
}

// toggle forwards every second packet of a source: the first inserts the
// source, the next finds and deletes it.
const toggle = `
program toggle;
reg key = r3;
check: begin
    key = lmem32[26];
    hash_lookup(key);
    if (hit) { goto forget; }
    goto remember;
end
forget: begin
    hash_delete(key);
    exit(forward);
end
remember: begin
    hash_insert(key, 1);
    exit(drop);
end
`

func TestMicrocodeHashDeleteForgetsSource(t *testing.T) {
	r := newMCRig(t, toggle, 1, nil)
	for i := 0; i < 3; i++ {
		r.send(1, udpFrom(1, 1000, []byte{byte('a' + i)}))
	}
	r.checkNoErrors(t)
	if len(r.got) != 1 || r.got[0].frame[42] != 'b' {
		t.Fatalf("delivered = %+v, want only the second packet", r.got)
	}
	if _, ok, _ := r.pfe.Hash.Lookup(0, srcKey(udpFrom(1, 1000, nil))); !ok || r.pfe.Hash.Len() != 1 {
		t.Fatalf("hash records = %d, want the third packet's insert only", r.pfe.Hash.Len())
	}
}
