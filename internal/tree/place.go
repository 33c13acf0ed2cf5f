package tree

// Placement is a topology-aware assignment of a tree onto sim.Cluster
// partitions: the rack subtrees (a ToR router plus its workers and their
// links) are dealt round-robin over all the partitions, so P partitions means
// P near-equal shares of the workers, and the few spine routers of every
// upper level ride on the partition that holds the fewest racks. Only
// ToR↔spine uplinks cross partitions, so the conservative lookahead stays the
// inter-rack cable propagation and all intra-rack traffic (the overwhelming
// majority at datacenter fan-ins) never pays a synchronization barrier.
type Placement struct {
	Partitions int   // effective partition count; 1 collapses to a single engine
	racks      []int // rack index -> partition
}

// AutoPlace computes the placement for `racks` rack subtrees under a
// requested partition budget. The request is clamped to racks (more
// partitions than subtrees would idle) and to a floor of 1; with fewer
// partitions than racks, subtrees share round-robin. Requests <= 1 place
// everything on one engine, as does a single-rack tree: its ToR is the
// root, so there are no inter-router links to cross a partition boundary
// and nothing to register a conservative lookahead against.
func AutoPlace(racks, requested int) Placement {
	if requested <= 1 || racks < 2 {
		return Placement{Partitions: 1}
	}
	p := min(requested, racks)
	pl := Placement{Partitions: p, racks: make([]int, racks)}
	for r := range pl.racks {
		pl.racks[r] = r % p
	}
	return pl
}

// Spine returns the partition of the spine levels: the last one, which the
// round-robin deal leaves with the fewest racks.
func (p Placement) Spine() int { return max(p.Partitions, 1) - 1 }

// Rack returns rack r's partition (0 when unpartitioned).
func (p Placement) Rack(r int) int {
	if p.Partitions <= 1 {
		return 0
	}
	return p.racks[r]
}
