package faults

import "github.com/trioml/triogo/internal/obs"

// RegisterObs exports the plan's injected-fault counters into a metrics
// registry, nil-gated like every other RegisterObs in the tree. Recovery
// from these faults is counted where it happens (retransmits in workers,
// replays and timeouts in aggregators) and exported by those layers.
func (p *Plan) RegisterObs(r *obs.Registry) {
	if p == nil || r == nil {
		return
	}
	counter := func(name, unit, help string, fn func() uint64) {
		r.CounterFunc(obs.Desc{Name: name, Unit: unit, Help: help}, fn)
	}
	counter("triogo_faults_link_flap_drops_total", "frames",
		"Frames lost inside an injected link-flap window.",
		func() uint64 { return p.linkFlapDrops.Load() })
	counter("triogo_faults_link_corruptions_total", "frames",
		"Frames delivered with an injected single-bit flip.",
		func() uint64 { return p.linkCorruptions.Load() })
	counter("triogo_faults_link_duplicates_total", "frames",
		"Frames delivered twice by duplication injection.",
		func() uint64 { return p.linkDuplicates.Load() })
	counter("triogo_faults_link_reorders_total", "frames",
		"Frames delayed past later traffic by reordering injection.",
		func() uint64 { return p.linkReorders.Load() })
	counter("triogo_faults_ppe_stalls_total", "stalls",
		"PPE work items hit by an injected thread stall.",
		func() uint64 { return p.ppeStalls.Load() })
	counter("triogo_faults_ppe_stall_ns_total", "nanoseconds",
		"Total injected PPE stall time.",
		func() uint64 { return p.ppeStallNs.Load() })
	counter("triogo_faults_mem_bank_errors_total", "requests",
		"RMW engine requests hit by an injected (detected and retried) bank error.",
		func() uint64 { return p.memBankErrors.Load() })
	counter("triogo_faults_hostagg_recv_drops_total", "packets",
		"Host-aggregator contributions dropped at ingress by injection.",
		func() uint64 { return p.hostaggRecvDrops.Load() })
	counter("triogo_faults_hostagg_table_crashes_total", "crashes",
		"Host-aggregator block-table wipes injected.",
		func() uint64 { return p.hostaggCrashes.Load() })
	counter("triogo_faults_train_crashes_total", "crashes",
		"Training worker crashes executed by injection.",
		func() uint64 { return p.trainCrashes.Load() })
}
