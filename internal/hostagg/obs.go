package hostagg

import (
	"fmt"

	"github.com/trioml/triogo/internal/obs"
)

// RegisterObs exports the table's counters into a metrics registry:
// server-wide totals plus, for each configured tenant, its admission series
// (labelled tenant="<id>"). Every series reads a lock-free atomic, so a
// scrape never takes the table lock. Registration is idempotent, so a
// registry can outlive server restarts; func-backed series rebind to the
// latest table.
func (t *Table) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	counter := func(name, unit, help string, fn func() uint64) {
		r.CounterFunc(obs.Desc{Name: name, Unit: unit, Help: help}, fn)
	}
	counter("triogo_hostagg_packets_total", "packets",
		"Well-formed contribution packets received.",
		func() uint64 { return t.counters.packets.Load() })
	counter("triogo_hostagg_duplicates_total", "packets",
		"Contributions dropped because the source already contributed to the block.",
		func() uint64 { return t.counters.duplicates.Load() })
	counter("triogo_hostagg_stale_drops_total", "packets",
		"Contributions dropped for carrying an older generation than the open block.",
		func() uint64 { return t.counters.staleDrops.Load() })
	counter("triogo_hostagg_completed_total", "blocks",
		"Blocks that received every worker's contribution and emitted a full result.",
		func() uint64 { return t.counters.completed.Load() })
	counter("triogo_hostagg_degraded_total", "blocks",
		"Blocks aged out by the sweep and emitted as partial (degraded) results.",
		func() uint64 { return t.counters.degraded.Load() })
	counter("triogo_hostagg_bad_packets_total", "packets",
		"Well-formed packets rejected for protocol violations (out-of-range source id, empty block).",
		func() uint64 { return t.counters.badPackets.Load() })
	counter("triogo_hostagg_gen_restarts_total", "blocks",
		"Open blocks superseded by a newer generation reusing the block id.",
		func() uint64 { return t.counters.genRestarts.Load() })
	counter("triogo_hostagg_grad_mismatch_total", "packets",
		"Contributions refused because their gradient count differed from the open block's.",
		func() uint64 { return t.counters.gradMismatch.Load() })
	counter("triogo_hostagg_shed_total", "packets",
		"Contributions refused by the MaxOpenBlocks/MaxBlocksPerJob overload bounds.",
		func() uint64 { return t.counters.shed.Load() })
	counter("triogo_hostagg_jobs_expired_total", "jobs",
		"Jobs evicted whole (blocks and registrations) by JobIdleTimeout.",
		func() uint64 { return t.counters.jobsExpired.Load() })
	counter("triogo_hostagg_blocks_timed_out_total", "blocks",
		"Open blocks aged out by the sweep after a full timeout without progress.",
		func() uint64 { return t.counters.blocksTimedOut.Load() })
	counter("triogo_hostagg_result_replays_total", "results",
		"Retransmitted contributions answered from the served-result replay cache.",
		func() uint64 { return t.counters.resultReplays.Load() })
	counter("triogo_hostagg_malformed_total", "packets",
		"Datagrams rejected at decode: truncated, oversized, or garbage wire data.",
		func() uint64 { return t.counters.malformed.Load() })
	counter("triogo_hostagg_quota_shed_total", "packets",
		"Block creations refused because the sender tenant exhausted its own quota.",
		func() uint64 { return t.counters.quotaShed.Load() })
	counter("triogo_hostagg_rate_shed_total", "packets",
		"Packets dropped by a tenant's token-bucket packet-rate limit.",
		func() uint64 { return t.counters.rateShed.Load() })
	counter("triogo_hostagg_fair_evictions_total", "blocks",
		"Open blocks displaced by weighted-fair shedding to admit an under-share tenant.",
		func() uint64 { return t.counters.fairEvictions.Load() })
	counter("triogo_hostagg_nacks_sent_total", "packets",
		"Retry-after NACK control packets sent to refused senders.",
		func() uint64 { return t.counters.nacksSent.Load() })
	counter("triogo_hostagg_pressure_enters_total", "transitions",
		"Overload-ladder climbs from normal into pressure or higher.",
		func() uint64 { return t.counters.pressureEnters.Load() })
	counter("triogo_hostagg_overload_enters_total", "transitions",
		"Overload-ladder climbs into the overload rung.",
		func() uint64 { return t.counters.overloadEnters.Load() })
	r.GaugeFunc(obs.Desc{
		Name: "triogo_hostagg_pending_blocks", Unit: "blocks",
		Help: "Open (partially aggregated) blocks in the table.",
	}, func() float64 { return float64(t.Pending()) })
	r.GaugeFunc(obs.Desc{
		Name: "triogo_hostagg_overload_state", Unit: "state",
		Help: "Current overload-ladder rung: 0 normal, 1 pressure, 2 overload.",
	}, func() float64 { return float64(t.overload.Load()) })

	for _, tn := range t.tenants.configured {
		tn := tn
		l := fmt.Sprintf("tenant=\"%d\"", tn.id)
		r.GaugeFunc(obs.Desc{
			Name: "triogo_hostagg_tenant_open_blocks", Unit: "blocks", Labels: l,
			Help: "Open blocks currently charged to this tenant.",
		}, func() float64 { return float64(tn.open.Load()) })
		r.GaugeFunc(obs.Desc{
			Name: "triogo_hostagg_tenant_bytes_in_flight", Unit: "bytes", Labels: l,
			Help: "Gradient bytes of this tenant's open blocks.",
		}, func() float64 { return float64(tn.bytes.Load()) })
		r.CounterFunc(obs.Desc{
			Name: "triogo_hostagg_tenant_packets_total", Unit: "packets", Labels: l,
			Help: "Well-formed packets attributed to this tenant.",
		}, func() uint64 { return tn.packets.Load() })
		r.CounterFunc(obs.Desc{
			Name: "triogo_hostagg_tenant_shed_total", Unit: "packets", Labels: l,
			Help: "This tenant's refused block creations (quota plus fair-share).",
		}, func() uint64 { return tn.shed.Load() })
		r.CounterFunc(obs.Desc{
			Name: "triogo_hostagg_tenant_rate_shed_total", Unit: "packets", Labels: l,
			Help: "Packets dropped by this tenant's token bucket.",
		}, func() uint64 { return tn.rateShed.Load() })
		r.CounterFunc(obs.Desc{
			Name: "triogo_hostagg_tenant_evicted_total", Unit: "blocks", Labels: l,
			Help: "This tenant's open blocks displaced by weighted-fair shedding.",
		}, func() uint64 { return tn.evicted.Load() })
		r.CounterFunc(obs.Desc{
			Name: "triogo_hostagg_tenant_nacks_total", Unit: "packets", Labels: l,
			Help: "Retry-after NACKs sent to this tenant.",
		}, func() uint64 { return tn.nacks.Load() })
	}
}
