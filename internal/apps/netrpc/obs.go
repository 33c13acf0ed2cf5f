package netrpc

import (
	"github.com/trioml/triogo/internal/obs"
)

// RegisterObs exports the service's counters into a metrics registry. The
// request/response classification counters live in shared memory (the
// program increments them with RMW counter XTXNs), so their series read
// through Memory.Counter at scrape time; fanout is a host-side atomic from
// the replication hook.
func (s *Service) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	counter := func(name, unit, help string, idx int) {
		r.CounterFunc(obs.Desc{Name: name, Unit: unit, Help: help},
			func() uint64 { return s.ctr(idx) })
	}
	counter("triogo_apps_netrpc_hits_total", "requests",
		"Requests served from the PFE-resident result cache.", ctrHits)
	counter("triogo_apps_netrpc_coalesced_total", "requests",
		"Requests absorbed into a pending entry's waiter mask.", ctrCoalesced)
	counter("triogo_apps_netrpc_claims_total", "requests",
		"Requests that installed a pending entry and went upstream.", ctrClaims)
	counter("triogo_apps_netrpc_bypass_total", "requests",
		"Requests sent around the cache on a slot collision.", ctrBypass)
	counter("triogo_apps_netrpc_poisoned_total", "responses",
		"Responses rejected: wrong port, or not addressed to a pending entry.", ctrPoison)
	counter("triogo_apps_netrpc_adopted_total", "responses",
		"Origin responses adopted into the result cache.", ctrAdopted)
	counter("triogo_apps_netrpc_passthrough_total", "responses",
		"Untracked responses forwarded to their clients unchanged.", ctrPassthrough)
	r.CounterFunc(obs.Desc{
		Name: "triogo_apps_netrpc_fanout_total", Unit: "responses",
		Help: "Replicated replies delivered to coalesced waiters by the MQSS hook.",
	}, s.fanout.Load)
}
