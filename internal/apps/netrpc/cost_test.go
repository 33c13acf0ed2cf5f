package netrpc

import (
	"testing"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/trio/pfe"
)

// costRig wraps the service's Finish hook to capture each packet's thread
// statistics, so measured per-path instruction and XTXN counts can be
// pinned against the analytic model.
type costRig struct {
	*rig
	last microcode.Stats
}

func newCostRig(t *testing.T, cfg Config) *costRig {
	r := newRig(t, cfg)
	cr := &costRig{rig: r}
	inner := r.svc.App.Finish
	r.svc.App.Finish = func(th *microcode.Thread, ctx *pfe.Ctx, v microcode.Verdict) {
		cr.last = th.Stats
		if inner != nil {
			inner(th, ctx, v)
		}
	}
	return cr
}

func (cr *costRig) measure(port int, frame []byte) microcode.Stats {
	cr.inject(port, frame)
	return cr.last
}

// TestCostModelMatchesMeasured drives every path the model prices and
// requires exact agreement with Thread.Stats — the license for progdse to
// prune netrpc configurations without simulating them.
func TestCostModelMatchesMeasured(t *testing.T) {
	for _, cfg := range []Config{
		{Slots: 16},
		{Slots: 64},
		{Slots: 1024},
	} {
		cr := newCostRig(t, cfg)
		cost := cr.svc.cfg.Cost()
		if got := cr.svc.Program.Len(); got != cost.StaticInstructions {
			t.Fatalf("%+v: static = %d, model says %d", cfg, got, cost.StaticInstructions)
		}

		check := func(path string, st microcode.Stats, wantInstr, wantXTXN int) {
			t.Helper()
			if st.Instructions != uint64(wantInstr) {
				t.Errorf("%+v %s: %d instrs, model says %d", cfg, path, st.Instructions, wantInstr)
			}
			if wantXTXN >= 0 && st.XTXNs != uint64(wantXTXN) {
				t.Errorf("%+v %s: %d XTXNs, model says %d", cfg, path, st.XTXNs, wantXTXN)
			}
		}

		const rpc = uint64(0x1_0007)      // slot 7 under every swept mask
		const collider = uint64(0x2_0007) // same slot, different tag
		req := func(client uint16, id uint64) []byte {
			return packet.BuildNetRPC(packet.UDPSpec{}, packet.NetRPC{
				Op: packet.NetRPCRequest, ClientID: client, RPCID: id,
			}, make([]byte, cellBytes))
		}
		resp := func(client uint16, id uint64) []byte {
			return packet.BuildNetRPC(packet.UDPSpec{}, packet.NetRPC{
				Op: packet.NetRPCResponse, ClientID: client, RPCID: id,
			}, make([]byte, cellBytes))
		}

		check("claim", cr.measure(1, req(1, rpc)), cost.InstrClaim, cost.XTXNsClaim)
		check("coalesce", cr.measure(2, req(2, rpc)), cost.InstrCoalesce, cost.XTXNsCoalesce)
		check("bypass", cr.measure(3, req(3, collider)), cost.InstrBypass, -1)
		check("poison-gate", cr.measure(3, resp(3, rpc)), cost.InstrPoisonGate, -1)
		check("passthrough", cr.measure(cr.serverPort(), resp(3, collider)),
			cost.InstrPassthrough, -1)
		check("adopt", cr.measure(cr.serverPort(), resp(1, rpc)), cost.InstrAdopt, cost.XTXNsAdopt)
		check("poison-dup", cr.measure(cr.serverPort(), resp(1, rpc)), cost.InstrPoisonDup, -1)
		check("serve", cr.measure(4, req(4, rpc)), cost.InstrServe, cost.XTXNsServe)
		cr.checkErrors()
	}
}

// TestCostFootprints pins the provisioned pool sizes against the model.
func TestCostFootprints(t *testing.T) {
	cfg := Config{Slots: 256}
	cost := cfg.Cost()
	if want := uint64(256*32 + 7*16 + 256*16); cost.SRAMBytes != want {
		t.Errorf("SRAM = %d, want %d", cost.SRAMBytes, want)
	}
	if want := uint64(256 * 32); cost.DRAMBytes != want {
		t.Errorf("DRAM = %d, want %d", cost.DRAMBytes, want)
	}
	if (Config{Slots: 3}).Cost() != (Cost{}) {
		t.Error("invalid config did not yield zero cost")
	}
}
