package smem

import (
	"strings"
	"testing"

	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
)

func TestRegisterObsExportsBankAndTierSeries(t *testing.T) {
	m := New(Config{NumRMWEngines: 2})
	reg := obs.NewRegistry()
	m.RegisterObs(reg)

	sramAddr := m.Alloc(TierSRAM, 64)
	dramAddr := m.Alloc(TierDRAM, 64)
	now := sim.Time(0)
	for i := 0; i < 4; i++ {
		done := m.ReadInto(now, sramAddr, make([]byte, 8))
		if done <= now {
			t.Fatalf("read completed at %v, not after issue %v", done, now)
		}
	}
	m.Write(now, dramAddr, make([]byte, 8))

	snap := reg.Snapshot()
	var ops float64
	for _, bank := range []string{"0", "1"} {
		if v, ok := snap[`triogo_smem_rmw_ops_total{bank="`+bank+`"}`].(float64); ok {
			ops += v
		}
	}
	if ops != 5 {
		t.Errorf("total bank ops = %v, want 5", ops)
	}

	sram, ok := snap[`triogo_smem_access_latency_ns{tier="sram"}`].(map[string]any)
	if !ok || sram["count"] != uint64(4) {
		t.Errorf("sram latency histogram = %v, want 4 observations", snap[`triogo_smem_access_latency_ns{tier="sram"}`])
	}
	dram, ok := snap[`triogo_smem_access_latency_ns{tier="dram"}`].(map[string]any)
	if !ok || dram["count"] != uint64(1) {
		t.Errorf("dram latency histogram = %v, want 1 observation", snap[`triogo_smem_access_latency_ns{tier="dram"}`])
	}
	// SRAM floor is ~70ns, DRAM ~400ns: sums must reflect the tier split.
	if s, d := sram["sum"].(float64), dram["sum"].(float64); s < 4*70 || d < 400 {
		t.Errorf("latency sums sram=%v dram=%v below tier floors", s, d)
	}
	queue, ok := snap["triogo_smem_rmw_queueing_ns"].(map[string]any)
	if !ok || queue["count"] != uint64(5) {
		t.Errorf("queueing histogram = %v, want 5 observations", snap["triogo_smem_rmw_queueing_ns"])
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`triogo_smem_access_latency_ns_bucket{tier="sram",le="+Inf"} 4`,
		`triogo_smem_rmw_ops_total{bank="0"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// TestContentionFeedsQueueingHistogram issues a burst at one address so the
// owning bank backlogs, and checks the queueing histogram sees the delay.
func TestContentionFeedsQueueingHistogram(t *testing.T) {
	m := New(Config{NumRMWEngines: 1})
	reg := obs.NewRegistry()
	m.RegisterObs(reg)

	addr := m.Alloc(TierSRAM, 8)
	for i := 0; i < 10; i++ {
		m.Add64(0, addr, 1) // all at t=0: each request queues behind the last
	}
	snap := reg.Snapshot()
	q := snap["triogo_smem_rmw_queueing_ns"].(map[string]any)
	if q["count"] != uint64(10) || q["sum"].(float64) <= 0 {
		t.Errorf("queueing histogram = %v, want 10 observations with positive sum", q)
	}
	if v := snap[`triogo_smem_rmw_backlogged_total{bank="0"}`]; v != 9.0 {
		t.Errorf("backlogged = %v, want 9 (all but the first)", v)
	}
}

// TestObsOffChangesNothing pins that an uninstrumented Memory returns the
// same completion times as an instrumented one (observation is passive).
func TestObsOffChangesNothing(t *testing.T) {
	run := func(attach bool) sim.Time {
		m := New(Config{NumRMWEngines: 2})
		if attach {
			m.RegisterObs(obs.NewRegistry())
		}
		addr := m.Alloc(TierCache, 64)
		var last sim.Time
		for i := 0; i < 16; i++ {
			last = m.ReadInto(sim.Time(i), addr, make([]byte, 32))
		}
		return last
	}
	if off, on := run(false), run(true); off != on {
		t.Errorf("completion diverges: plain %v, instrumented %v", off, on)
	}
}
