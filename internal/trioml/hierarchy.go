package trioml

import (
	"fmt"

	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/trio"
)

// Hierarchical aggregation (§4, Fig. 11b): when ML sources span multiple
// PFEs, each first-level PFE aggregates its local sources and feeds its
// result directly — over the chassis fabric, without IP forwarding — to a
// designated top-level PFE, which sees the lower PFEs as individual sources.
// The final result is multicast back down the same internal links; the
// first-level PFEs distribute it to their local workers. All of this is
// control-plane configuration: no data-path code changes.

// HierGroup describes one first-level aggregation group.
type HierGroup struct {
	PFE          int     // first-level PFE index in the router
	WorkerSrcIDs []uint8 // local sources
	WorkerPorts  []int   // port per source, same order
	UplinkPort   int     // this PFE's port on the internal link to the top PFE
	TopPort      int     // the top PFE's port on that link
}

// HierarchyConfig wires one job across a chassis.
type HierarchyConfig struct {
	JobID      uint8
	TopPFE     int
	Groups     []HierGroup
	ResultSpec packet.UDPSpec
}

// Hierarchy is an installed hierarchical job.
type Hierarchy struct {
	Top    *Aggregator
	Levels []*Aggregator // one per group, in Groups order
	// Fabric holds the fabric links SetupHierarchy built, in Groups order:
	// each group's uplink, then the link back down.
	Fabric []*netsim.Link
}

// SetupHierarchy installs aggregators and the job's records on every
// involved PFE and connects each group's uplink port to its top-level port
// with a pair of fabric links (Router.Connect). Aggregators for PFEs that
// already host one (aggs non-nil entries) are reused so multiple jobs can
// share a chassis.
func SetupHierarchy(r *trio.Router, cfg HierarchyConfig, aggs map[int]*Aggregator) (*Hierarchy, error) {
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("trioml: hierarchy needs at least one group")
	}
	if aggs == nil {
		aggs = make(map[int]*Aggregator)
	}
	get := func(pfeIdx int) *Aggregator {
		if a, ok := aggs[pfeIdx]; ok {
			return a
		}
		a := New(r.PFE(pfeIdx))
		aggs[pfeIdx] = a
		return a
	}

	h := &Hierarchy{Top: get(cfg.TopPFE)}
	topSources := make([]uint8, 0, len(cfg.Groups))
	topPorts := make([]int, 0, len(cfg.Groups))
	for gi, g := range cfg.Groups {
		if len(g.WorkerSrcIDs) != len(g.WorkerPorts) {
			return nil, fmt.Errorf("trioml: group %d has %d sources but %d ports", gi, len(g.WorkerSrcIDs), len(g.WorkerPorts))
		}
		if g.PFE == cfg.TopPFE {
			return nil, fmt.Errorf("trioml: group %d PFE equals the top-level PFE", gi)
		}
		up, down := r.Connect(g.PFE, g.UplinkPort, r, cfg.TopPFE, g.TopPort, trio.FabricLinkConfig(), trio.FabricLinkConfig())
		h.Fabric = append(h.Fabric, up, down)
		level := get(g.PFE)
		err := level.InstallJob(JobConfig{
			JobID:           cfg.JobID,
			Sources:         g.WorkerSrcIDs,
			ResultSpec:      cfg.ResultSpec,
			UpstreamPort:    g.UplinkPort,
			UpstreamSrcID:   uint8(gi),
			DistributePorts: g.WorkerPorts,
		})
		if err != nil {
			return nil, fmt.Errorf("trioml: group %d: %w", gi, err)
		}
		h.Levels = append(h.Levels, level)
		topSources = append(topSources, uint8(gi))
		topPorts = append(topPorts, g.TopPort)
	}
	err := h.Top.InstallJob(JobConfig{
		JobID:        cfg.JobID,
		Sources:      topSources,
		ResultSpec:   cfg.ResultSpec,
		ResultPorts:  topPorts,
		UpstreamPort: -1,
	})
	if err != nil {
		return nil, fmt.Errorf("trioml: top level: %w", err)
	}
	return h, nil
}
