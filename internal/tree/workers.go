package tree

import (
	"math/bits"

	"github.com/trioml/triogo/internal/netsim"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
)

// workerBank simulates one rack's workers as a single event-driven bank
// colocated with the rack's ToR (same engine, same partition) — the only
// way 10^5–10^6 workers stay affordable: per worker the bank keeps the
// uplink of its NIC cable and a few words of protocol state instead of a
// goroutine, and every downlink delivers to the bank's one sink, tagged
// with its worker (onFrame), so wiring a worker makes no closure.
//
// The bank implements the worker side of the composed protocol: stream
// `Blocks` aggregation blocks with `Window` outstanding, and on each result
// either accept it or — when the result is degraded with age_op >= 2, i.e.
// a spine proceeded without a whole rack — bump the block's generation and
// re-contribute (gen-restart), up to maxRestarts times. Generation state is
// rack-shared: the first worker to see the restart signal bumps the
// generation, and every later worker notices its last send is stale and
// re-sends, so one multicast restarts the whole rack.
type workerBank struct {
	rack int
	eng  *sim.Engine
	cfg  Config
	tree *Tree

	// remaining counts accepts still owed ((live workers) x Blocks); at
	// zero the bank reports itself complete to tree.unfinished, keeping the
	// simulation's stop condition O(1) instead of a rack-and-worker rescan.
	remaining int

	silent []bool
	up     []*netsim.Link // worker w's NIC -> ToR port w link

	// Per-worker streaming state.
	next []int    // next block index to start
	done []int    // results accepted
	out  []uint64 // outstanding-block bitmask (Blocks <= 64)

	// Per-(worker, block) and per-block (rack-shared) generation state.
	sentGen   []uint16   // w*Blocks+b -> generation of the last send
	rackGen   []uint16   // b -> current generation (starts at 1)
	restarts  []uint8    // b -> gen-restarts taken
	firstSend []sim.Time // b -> first transmission (restart-recovery baseline)

	// Outcome bookkeeping, read after the run (or at barriers) by Stats.
	sigs        []ResultSig // b -> signature of the accepted result
	lats        []sim.Time  // worker 0's send->accept per block
	maxRecovery sim.Time    // worst send->accept over all workers
	lastAccept  sim.Time
	delivered   uint64
	degraded    uint64 // accepts of partial (degraded) results
	maxAgeOp    uint8
	genRestarts [16]uint64 // aged level -> restarts this rack took

	frame packet.Frame // receive-side decode scratch
	grads []int32      // send-side scratch; BuildTrioML copies it out
}

// ResultSig fingerprints an accepted result so runs can be compared for
// bit-exactness: the fan-in the root saw and an FNV-1a hash of the summed
// gradient payload. Generation is deliberately excluded — a run that
// recovered via gen-restart must compare equal to a fault-free oracle.
type ResultSig struct {
	SrcCnt uint8
	AgeOp  uint8
	Hash   uint64
}

func hashPayload(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// ExpectedHash computes the ResultSig hash of block blk's tree-wide sum
// over the workers live admits (nil admits all): worker gw contributes
// gradient i = gw + blk + i, so the correct aggregate is known in closed
// form and any run — including one that recovered through gen-restarts —
// can be checked for bit-exactness without an oracle simulation.
func ExpectedHash(cfg Config, blk int, live func(gw int) bool) uint64 {
	grads := make([]int32, cfg.GradsPerPkt)
	for gw := 0; gw < cfg.Workers(); gw++ {
		if live != nil && !live(gw) {
			continue
		}
		for i := range grads {
			grads[i] += int32(gw + blk + i)
		}
	}
	b := make([]byte, 4*len(grads))
	packet.PutGradients(b, grads)
	return hashPayload(b)
}

func newWorkerBank(t *Tree, rack int, tor *Node) *workerBank {
	cfg := t.Cfg
	w := cfg.WorkersPerRack
	b := &workerBank{
		rack: rack, eng: tor.Engine, cfg: cfg, tree: t,
		silent:    make([]bool, w),
		up:        make([]*netsim.Link, w),
		next:      make([]int, w),
		done:      make([]int, w),
		out:       make([]uint64, w),
		sentGen:   make([]uint16, w*cfg.Blocks),
		rackGen:   make([]uint16, cfg.Blocks),
		restarts:  make([]uint8, cfg.Blocks),
		firstSend: make([]sim.Time, cfg.Blocks),
		sigs:      make([]ResultSig, cfg.Blocks),
		grads:     make([]int32, cfg.GradsPerPkt),
	}
	for blk := range b.rackGen {
		b.rackGen[blk] = 1
		b.firstSend[blk] = -1
	}
	for i := range b.silent {
		gw := rack*cfg.WorkersPerRack + i
		b.silent[i] = cfg.SilentWorkers[gw] || cfg.SilentRacks[rack]
		if !b.silent[i] {
			b.remaining += cfg.Blocks
		}
	}
	def := netsim.DefaultLinkConfig()
	rx := netsim.NewSink(tor.Engine, b.onFrame)
	for i := 0; i < w; i++ {
		b.up[i] = tor.Router.Cable(0, i, def, def, rx, i)
	}
	return b
}

// start opens every live worker's send window.
func (b *workerBank) start() {
	for w := range b.silent {
		b.pump(w)
	}
}

func (b *workerBank) pump(w int) {
	if b.silent[w] {
		return
	}
	for bits.OnesCount64(b.out[w]) < b.cfg.Window && b.next[w] < b.cfg.Blocks {
		blk := b.next[w]
		b.next[w]++
		b.out[w] |= 1 << uint(blk)
		b.sendBlock(w, blk)
	}
}

// sendBlock (re)contributes worker w's gradients for block blk under the
// rack's current generation. Gradient i is globalWorkerID + blk + i — a
// pattern whose tree-wide sum a test can predict exactly.
func (b *workerBank) sendBlock(w, blk int) {
	gen := b.rackGen[blk]
	b.sentGen[w*b.cfg.Blocks+blk] = gen
	if b.firstSend[blk] < 0 {
		b.firstSend[blk] = b.eng.Now()
	}
	gw := b.rack*b.cfg.WorkersPerRack + w
	for i := range b.grads {
		b.grads[i] = int32(gw + blk + i)
	}
	b.up[w].Send(packet.BuildTrioML(packet.UDPSpec{
		SrcIP:   [4]byte{10, uint8(b.rack >> 8), uint8(b.rack), uint8(w)},
		DstIP:   [4]byte{10, 1, uint8(b.rack >> 8), uint8(b.rack)},
		SrcPort: 5000,
	}, packet.TrioML{
		JobID: jobID, BlockID: uint32(blk), SrcID: uint8(w), GenID: gen,
		GradCnt: uint16(b.cfg.GradsPerPkt),
	}, b.grads))
}

// outstanding reports whether worker w is still waiting on block blk.
func (b *workerBank) outstanding(w, blk int) bool {
	return b.out[w]&(1<<uint(blk)) != 0
}

// onFrame is the bank's one receiver: every downlink delivers to it, tagged
// with its worker. It handles a result multicast down to worker w.
func (b *workerBank) onFrame(w int, raw []byte, at sim.Time) {
	f := &b.frame
	if err := packet.DecodeInto(f, raw); err != nil || !f.IsTrioML() {
		return
	}
	h := f.ML
	blk := int(h.BlockID)
	if h.JobID != jobID || blk >= b.cfg.Blocks {
		return
	}
	if h.AgeOp > b.maxAgeOp {
		b.maxAgeOp = h.AgeOp
	}

	// The rack-straggler signal: a spine (age_op >= 2) proceeded without a
	// whole subtree. The first worker of the rack to see it bumps the
	// block's generation — a gen-restart — unless the restart budget is
	// spent, in which case the rack settles for the partial.
	if h.Degraded && h.AgeOp >= 2 && h.GenID == b.rackGen[blk] &&
		b.restarts[blk] < maxRestarts {
		b.rackGen[blk]++
		b.restarts[blk]++
		b.genRestarts[h.AgeOp-1]++
	}

	// A worker whose last contribution predates the current generation
	// re-sends instead of accepting — whether this very result triggered
	// the restart or a sibling worker's earlier delivery did.
	if b.outstanding(w, blk) && !b.silent[w] && b.sentGen[w*b.cfg.Blocks+blk] != b.rackGen[blk] {
		b.sendBlock(w, blk)
		return
	}
	if h.GenID != b.rackGen[blk] || !b.outstanding(w, blk) {
		return
	}

	// Accept.
	b.out[w] &^= 1 << uint(blk)
	b.done[w]++
	b.delivered++
	if b.remaining--; b.remaining == 0 {
		b.tree.unfinished.Add(-1)
	}
	if h.Degraded {
		b.degraded++
	}
	if b.sigs[blk].Hash == 0 {
		b.sigs[blk] = ResultSig{SrcCnt: h.SrcCnt, AgeOp: h.AgeOp, Hash: hashPayload(f.Payload)}
	}
	if d := at - b.firstSend[blk]; d > b.maxRecovery {
		b.maxRecovery = d
	}
	if w == 0 {
		b.lats = append(b.lats, at-b.firstSend[blk])
	}
	b.lastAccept = at
	b.pump(w)
}
