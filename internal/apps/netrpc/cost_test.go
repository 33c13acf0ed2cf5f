package netrpc

import (
	"testing"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// TestCostModelMatchesMeasured replays costScript on a full one-PFE rig and
// requires each path's Thread.Stats — instructions and XTXNs — to equal the
// cost run's on the in-memory Env, and Cost to report them: the license for
// exp_netrpc to price measured path counts with Cost.
func TestCostModelMatchesMeasured(t *testing.T) {
	for _, cfg := range []Config{{Slots: 16}, {Slots: 64}, {Slots: 1024}, {Slots: 4096}} {
		want, static, err := cfg.pathStats()
		if err != nil {
			t.Fatal(err)
		}
		cost, err := cfg.Cost()
		if err != nil {
			t.Fatal(err)
		}
		r := newRig(t, cfg)
		if got := r.svc.Program.Len(); got != static || cost.StaticInstructions != static {
			t.Fatalf("%+v: static: rig %d, cost run %d, Cost %d", cfg, got, static, cost.StaticInstructions)
		}
		var got microcode.Stats
		inner := r.svc.App.Finish
		r.svc.App.Finish = func(th *microcode.Thread, ctx *pfe.Ctx, v microcode.Verdict) {
			got = th.Stats
			inner(th, ctx, v)
		}
		for path, pk := range costScript {
			port := int(pk.client)
			if pk.server {
				port = r.serverPort()
			}
			r.inject(port, packet.BuildNetRPC(packet.UDPSpec{},
				packet.NetRPC{Op: pk.op, ClientID: pk.client, RPCID: pk.rpc}, make([]byte, cellBytes)))
			if got.Instructions != want[path].Instructions || got.XTXNs != want[path].XTXNs {
				t.Errorf("%+v path %d: rig %d instrs %d XTXNs, cost run %d instrs %d XTXNs",
					cfg, path, got.Instructions, got.XTXNs, want[path].Instructions, want[path].XTXNs)
			}
		}
		r.checkErrors()
		for path, n := range map[int]int{
			pathClaim: cost.InstrClaim, pathServe: cost.InstrServe, pathCoalesce: cost.InstrCoalesce,
			pathAdopt: cost.InstrAdopt, pathPassthrough: cost.InstrPassthrough,
			pathPoisonGate: cost.InstrPoisonGate, pathPoisonDup: cost.InstrPoisonDup,
		} {
			if uint64(n) != want[path].Instructions {
				t.Errorf("%+v path %d: Cost says %d instrs, cost run %d", cfg, path, n, want[path].Instructions)
			}
		}
		// Each path is a different run: the script walked all eight.
		st := r.svc.Stats()
		if st.Claims != 1 || st.Coalesced != 1 || st.Bypass != 1 || st.Passthrough != 1 ||
			st.Adopted != 1 || st.Hits != 1 || st.Poisoned != 2 {
			t.Errorf("%+v: script did not walk each path once: %+v", cfg, st)
		}
	}
	if _, err := (Config{Slots: 3}).Cost(); err == nil {
		t.Error("invalid config: Cost returned no error")
	}
}
