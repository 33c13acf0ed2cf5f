package harness

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/sim"
)

// TestChaosBounds runs the chaos sweep at seed 1 and relies on the
// experiment's built-in assertions: every fault family at every swept rate
// must stay bit-exact against the fault-free oracle, and every block's
// result must land within the §5 recovery bound (2x timeout + grace). A
// violation comes back as an error.
func TestChaosBounds(t *testing.T) {
	e, ok := Lookup("chaos")
	if !ok {
		t.Fatal("chaos experiment not registered")
	}
	tables, err := e.Run(Params{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("chaos: expected one populated table, got %d", len(tables))
	}
	for _, row := range tables[0].Rows {
		if row[5] != "yes" {
			t.Errorf("chaos: %s@%s%% recovery outside bound: %v", row[0], row[1], row)
		}
		if row[7] != "yes" {
			t.Errorf("chaos: %s@%s%% not bit-exact: %v", row[0], row[1], row)
		}
	}
}

// lossyRig runs the chaos rig's six servers, none silent, over links that
// drop each frame with probability loss and inject fcfg's faults, with each
// server resending its unanswered blocks every retx (0: never). Of the full
// results the servers accept, wrong counts those whose sum is not exact:
// server w sends w+block+g as gradient g of a block, so n servers sum to
// n(n-1)/2 + n(block+g).
func lossyRig(t *testing.T, loss float64, fcfg faults.Config, retx sim.Time) (rig *trioRig, plan *faults.Plan, full, wrong int, err error) {
	t.Helper()
	n := chaosServers
	plan = faults.NewPlan(1, fcfg)
	rig, sigs, err := runChaosRig(rigConfig{
		servers: n, gradsPerPkt: 1024, blocks: chaosBlocks, window: chaosBlocks,
		timeout: chaosTimeout, retxEvery: retx, replay: 4 * chaosBlocks, plan: plan,
	}, 1, loss)
	for k, sig := range sigs {
		if int(sig.srcCnt) != n {
			continue // degraded: aged out before a resend repaired it
		}
		full++
		h := fnv.New64a()
		for g := range 1024 {
			h.Write(binary.BigEndian.AppendUint32(nil, uint32(n*(n-1)/2+n*(int(k.block)+g))))
		}
		if sig.hash != h.Sum64() {
			wrong++
		}
	}
	return rig, plan, full, wrong, err
}

func retransmits(r *trioRig) uint64 {
	var n uint64
	for _, w := range r.servers {
		n += w.Retransmits
	}
	return n
}

// TestLossyLinksRecoverWithRetransmission: §7 "Packet loss in Trio-ML", 2%
// loss on every link with retransmission armed. Every server still gets
// every block's result, and every full result carries the exact sum (the
// source bitmask deduplicates resends; replay answers a resend whose result
// was lost).
func TestLossyLinksRecoverWithRetransmission(t *testing.T) {
	rig, _, full, wrong, err := lossyRig(t, 0.02, faults.Config{}, chaosRetx)
	if err != nil {
		t.Fatal(err)
	}
	if nativeDrops(rig) == 0 {
		t.Fatal("2% loss dropped no frame")
	}
	if retransmits(rig) == 0 {
		t.Fatal("2% loss produced no retransmissions")
	}
	if full == 0 || wrong > 0 {
		t.Fatalf("%d of %d full results with a wrong sum", wrong, full)
	}
}

// TestLossWithoutRetransmissionStalls: with resends off, §5 aging still
// turns a lost contribution into a degraded result, but a lost result frame
// is never repaired, so its server falls short of its blocks.
func TestLossWithoutRetransmissionStalls(t *testing.T) {
	if _, _, _, _, err := lossyRig(t, 0.05, faults.Config{}, 0); err == nil {
		t.Fatal("lossy run without retransmission finished every block")
	}
}

// TestClusterTreatsCorruptionAsLoss: a flipped bit fails the UDP checksum at
// the router's port (a contribution) or at the server (a result); either
// way the frame is lost, retransmission repairs it, and no corrupted frame
// reaches a sum.
func TestClusterTreatsCorruptionAsLoss(t *testing.T) {
	rig, plan, full, wrong, err := lossyRig(t, 0, faults.Config{Link: faults.LinkConfig{CorruptProb: 0.02}}, chaosRetx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats().LinkCorruptions == 0 {
		t.Fatal("2% corruption never fired")
	}
	if retransmits(rig) == 0 {
		t.Fatal("corrupted frames produced no retransmissions")
	}
	if full == 0 || wrong > 0 {
		t.Fatalf("%d of %d full results with a wrong sum: a corrupted frame was accepted", wrong, full)
	}
}
