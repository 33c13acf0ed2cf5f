package netrpc

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// rig is a single-PFE harness: clients sit on ports == their client IDs,
// the origin server behind the last port. Frames the PFE delivers are
// collected per port; server-port frames can be turned around through the
// simulated origin.
type rig struct {
	t      *testing.T
	eng    *sim.Engine
	p      *pfe.PFE
	svc    *Service
	origin *Origin
	out    map[int][][]byte
	flow   uint64
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.DefaultConfig())
	svc, err := Install(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, eng: eng, p: p, svc: svc, origin: &Origin{}, out: map[int][][]byte{}}
	p.SetOutput(func(port int, frame []byte, at sim.Time) {
		r.out[port] = append(r.out[port], append([]byte(nil), frame...))
	})
	return r
}

func (r *rig) serverPort() int { return r.p.Cfg.NumPorts - 1 }

func (r *rig) inject(port int, frame []byte) {
	r.flow++
	r.p.Inject(port, r.flow, frame)
	r.eng.Run()
}

// take drains the frames delivered on port.
func (r *rig) take(port int) [][]byte {
	f := r.out[port]
	delete(r.out, port)
	return f
}

// serverRoundTrip drains the server port, executes every request on the
// origin, and injects the responses back through the server port.
func (r *rig) serverRoundTrip() int {
	reqs := r.take(r.serverPort())
	for _, f := range reqs {
		if resp := r.origin.Handle(f); resp != nil {
			r.inject(r.serverPort(), resp)
		}
	}
	return len(reqs)
}

func (r *rig) checkErrors() {
	r.t.Helper()
	if r.svc.App.Errors != 0 {
		r.t.Fatalf("microcode errors: %d (%v)", r.svc.App.Errors, r.svc.App.LastError)
	}
}

// TestClaimAdoptServeCoalesce drives the full request-table lifecycle on
// one RPC: first request claims a pending entry and goes upstream, two
// concurrent duplicates coalesce into the waiter mask, the origin response
// is adopted and fanned out to all three clients, and a late fourth client
// is served from the cache without the origin ever seeing it.
func TestClaimAdoptServeCoalesce(t *testing.T) {
	r := newRig(t, Config{Slots: 64})
	const method = 7
	args := []byte("sum-of-everything")

	// First request: miss → claim → forwarded upstream.
	c1 := &Client{ID: 1}
	r.inject(1, c1.Request(method, args))
	if st := r.svc.Stats(); st.Claims != 1 || st.Requests() != 1 {
		t.Fatalf("after first request: %+v", st)
	}

	// Duplicates while pending: coalesced, consumed in the PFE.
	for _, id := range []uint16{2, 3} {
		c := &Client{ID: id}
		r.inject(int(id), c.Request(method, args))
		if got := r.take(int(id)); len(got) != 0 {
			t.Fatalf("client %d got %d frames while pending", id, len(got))
		}
	}
	if st := r.svc.Stats(); st.Coalesced != 2 {
		t.Fatalf("after duplicates: %+v", st)
	}

	// Origin answers once; the adopt path replies to the requester and the
	// replication hook replays it to both waiters.
	if n := r.serverRoundTrip(); n != 1 {
		t.Fatalf("origin saw %d requests, want 1", n)
	}
	if r.origin.Served != 1 {
		t.Fatalf("origin executed %d RPCs", r.origin.Served)
	}
	var want []byte
	for _, id := range []uint16{1, 2, 3} {
		frames := r.take(int(id))
		if len(frames) != 1 {
			t.Fatalf("client %d got %d frames after adopt", id, len(frames))
		}
		h, payload, err := ParseResponse(frames[0])
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
		if h.ClientID != id {
			t.Fatalf("client %d reply addressed to %d", id, h.ClientID)
		}
		if id == 1 {
			want = payload
			if h.Flags&packet.NetRPCFlagCoalesced != 0 {
				t.Fatal("requester's reply marked coalesced")
			}
		} else {
			if h.Flags&packet.NetRPCFlagCoalesced == 0 {
				t.Fatalf("client %d replica missing coalesced flag", id)
			}
			if !bytes.Equal(payload, want) {
				t.Fatalf("client %d replica payload diverges", id)
			}
		}
	}
	if st := r.svc.Stats(); st.Adopted != 1 || st.Fanout != 2 {
		t.Fatalf("after adopt: %+v", st)
	}

	// Late request: served from the cache, origin untouched.
	c4 := &Client{ID: 4}
	r.inject(4, c4.Request(method, args))
	frames := r.take(4)
	if len(frames) != 1 {
		t.Fatalf("client 4 got %d frames", len(frames))
	}
	h, payload, err := ParseResponse(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if h.Flags&packet.NetRPCFlagCached == 0 {
		t.Fatal("cache hit not flagged cached")
	}
	if !bytes.Equal(payload, want) {
		t.Fatal("cached payload diverges from origin result")
	}
	st := r.svc.Stats()
	if st.Hits != 1 || r.origin.Served != 1 {
		t.Fatalf("after hit: %+v, origin served %d", st, r.origin.Served)
	}
	slot := int(RPCKey(method, args) & uint64(r.svc.cfg.Slots-1))
	if pkts, bytes_ := r.svc.SlotHits(slot); pkts != 1 || bytes_ != 32 {
		t.Fatalf("slot hit counter = (%d, %d)", pkts, bytes_)
	}
	if n := len(r.take(r.serverPort())); n != 0 {
		t.Fatalf("hit leaked %d frames upstream", n)
	}
	r.checkErrors()
}

// directRequest builds a request frame with an explicit rpc_id, for tests
// that need to steer slot placement.
func directRequest(client uint16, rpcid uint64) []byte {
	return packet.BuildNetRPC(packet.UDPSpec{}, packet.NetRPC{
		Op:       packet.NetRPCRequest,
		ClientID: client,
		RPCID:    rpcid,
	}, make([]byte, 32))
}

// TestBypassOnSlotCollision: a second live RPC whose id maps to an
// occupied slot must go around the cache — forwarded upstream unserved —
// and its response must pass through untracked. Collisions degrade to
// no-acceleration, never to a wrong answer.
func TestBypassOnSlotCollision(t *testing.T) {
	r := newRig(t, Config{Slots: 64})
	rpcA := uint64(0x1_05) // slot 5
	rpcB := uint64(0x2_05) // slot 5 too
	r.inject(1, directRequest(1, rpcA))
	r.inject(2, directRequest(2, rpcB))
	if st := r.svc.Stats(); st.Claims != 1 || st.Bypass != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if n := r.serverRoundTrip(); n != 2 {
		t.Fatalf("origin saw %d requests, want 2", n)
	}
	// A's response adopts; B's passes through to its client untracked.
	if st := r.svc.Stats(); st.Adopted != 1 || st.Passthrough != 1 {
		t.Fatalf("after responses: %+v", st)
	}
	for _, id := range []int{1, 2} {
		if frames := r.take(id); len(frames) != 1 {
			t.Fatalf("client %d got %d frames", id, len(frames))
		}
	}
	r.checkErrors()
}

// TestPoisonRejection: a response arriving on a client-facing port is
// dropped outright, and a duplicate response for an already-served entry
// cannot overwrite the cached result.
func TestPoisonRejection(t *testing.T) {
	r := newRig(t, Config{Slots: 64})
	const rpc = uint64(0x31)

	// Spoofed response on a client port: dropped, counted.
	spoof := packet.BuildNetRPC(packet.UDPSpec{}, packet.NetRPC{
		Op: packet.NetRPCResponse, ClientID: 3, RPCID: rpc,
	}, bytes.Repeat([]byte{0xEE}, 32))
	r.inject(3, spoof)
	if st := r.svc.Stats(); st.Poisoned != 1 {
		t.Fatalf("after spoof: %+v", st)
	}
	if len(r.out) != 0 {
		t.Fatalf("spoofed response was delivered: %v ports", len(r.out))
	}

	// Claim + adopt the genuine entry.
	r.inject(1, directRequest(1, rpc))
	r.serverRoundTrip()
	frames := r.take(1)
	if len(frames) != 1 {
		t.Fatalf("client 1 got %d frames", len(frames))
	}
	_, want, err := ParseResponse(frames[0])
	if err != nil {
		t.Fatal(err)
	}

	// Duplicate/forged response for the served entry, even on the server
	// port: rejected — only pending entries adopt.
	forged := packet.BuildNetRPC(packet.UDPSpec{}, packet.NetRPC{
		Op: packet.NetRPCResponse, ClientID: 1, RPCID: rpc,
	}, bytes.Repeat([]byte{0xAA}, 32))
	r.inject(r.serverPort(), forged)
	if st := r.svc.Stats(); st.Poisoned != 2 {
		t.Fatalf("after forged duplicate: %+v", st)
	}

	// The cached result is intact.
	r.inject(2, directRequest(2, rpc))
	frames = r.take(2)
	if len(frames) != 1 {
		t.Fatalf("client 2 got %d frames", len(frames))
	}
	_, got, err := ParseResponse(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("forged response poisoned the cache")
	}
	r.checkErrors()
}

// scriptedWorkload drives a deterministic mixed workload — claims, hits,
// coalesced duplicates, collisions, poisons — used by the
// twin-engine equivalence test.
func scriptedWorkload(r *rig) {
	for i := 0; i < 8; i++ {
		rpc := uint64(0x1000 + i)
		r.inject(1+(i%3), directRequest(uint16(1+i%3), rpc))
		if i%2 == 0 { // duplicate while pending → coalesce
			r.inject(4, directRequest(4, rpc))
		}
	}
	r.serverRoundTrip()
	for i := 0; i < 8; i++ { // hits
		rpc := uint64(0x1000 + i)
		r.inject(5, directRequest(5, rpc))
	}
	r.inject(2, directRequest(2, 0x2000)) // fresh claim
	r.inject(3, packet.BuildNetRPC(packet.UDPSpec{}, packet.NetRPC{
		Op: packet.NetRPCResponse, ClientID: 3, RPCID: 0x2000,
	}, make([]byte, 32))) // spoof → poison
	r.serverRoundTrip()
}

// TestCompiledMatchesInterpreter runs the scripted workload through the
// compiled dispatcher and the reference interpreter on twin rigs: outputs,
// service stats, PFE stats, and virtual clocks must be bit-identical.
func TestCompiledMatchesInterpreter(t *testing.T) {
	cfg := Config{Slots: 64}
	rc := newRig(t, cfg)
	ri := newRig(t, cfg)
	ri.p.SetApp(pfe.Interpreted(ri.svc.App))
	scriptedWorkload(rc)
	scriptedWorkload(ri)
	rc.checkErrors()
	ri.checkErrors()
	if !reflect.DeepEqual(rc.out, ri.out) {
		t.Fatal("delivered frames diverge between compiled and interpreter")
	}
	if rc.svc.Stats() != ri.svc.Stats() {
		t.Fatalf("stats diverge:\ncompiled:    %+v\ninterpreter: %+v", rc.svc.Stats(), ri.svc.Stats())
	}
	if rc.p.Stats() != ri.p.Stats() {
		t.Fatalf("PFE stats diverge:\ncompiled:    %+v\ninterpreter: %+v", rc.p.Stats(), ri.p.Stats())
	}
	if rc.eng.Now() != ri.eng.Now() {
		t.Fatalf("clocks diverge: %v vs %v", rc.eng.Now(), ri.eng.Now())
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.DefaultConfig())
	for _, cfg := range []Config{
		{Slots: 0},
		{Slots: 48},
	} {
		if _, err := Install(p, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestRegisterObsReadsTheServiceCounters: each exported series reads the
// counter its name says, at scrape time.
func TestRegisterObsReadsTheServiceCounters(t *testing.T) {
	r := newRig(t, Config{Slots: 64})
	reg := obs.NewRegistry()
	r.svc.RegisterObs(reg)
	args := []byte("x")
	for _, id := range []uint16{1, 2, 3} { // one claim, two coalesced waiters
		r.inject(int(id), (&Client{ID: id}).Request(7, args))
	}
	r.serverRoundTrip() // adopt, and fan out to the waiters
	r.inject(4, (&Client{ID: 4}).Request(7, args))
	r.checkErrors()
	st, snap := r.svc.Stats(), reg.Snapshot()
	for name, want := range map[string]uint64{
		"triogo_apps_netrpc_hits_total":        st.Hits,
		"triogo_apps_netrpc_coalesced_total":   st.Coalesced,
		"triogo_apps_netrpc_claims_total":      st.Claims,
		"triogo_apps_netrpc_adopted_total":     st.Adopted,
		"triogo_apps_netrpc_fanout_total":      st.Fanout,
		"triogo_apps_netrpc_bypass_total":      st.Bypass,
		"triogo_apps_netrpc_poisoned_total":    st.Poisoned,
		"triogo_apps_netrpc_passthrough_total": st.Passthrough,
	} {
		if snap[name] != float64(want) {
			t.Errorf("%s = %v, stats say %d", name, snap[name], want)
		}
	}
	if st.Hits != 1 || st.Coalesced != 2 || st.Claims != 1 || st.Adopted != 1 || st.Fanout != 2 {
		t.Fatalf("stats %+v, want one hit, claim and adopt, two coalesced and fanned out", st)
	}
}
