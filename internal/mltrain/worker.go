package mltrain

import (
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
)

// Worker is one training server: it alternates GPU compute (with injected
// straggler delays) and gradient streaming, keeping up to Window aggregation
// packets outstanding, and treats multicast Result packets as the allreduce
// output. Block ids are globally unique (iteration × blocks + index) and
// gen_id carries the iteration, exercising the aggregator's generation
// logic. A result whose UDP checksum fails is dropped, exactly as if the
// link had lost it.
//
// A worker that wakes from a straggle and finds its iteration already
// completed (degraded results reached its NIC while it slept) skips its own
// contribution and fast-forwards — the behaviour §5 prescribes for servers
// receiving partial aggregation results.
type Worker struct {
	ID    int
	SrcID uint8

	eng        *sim.Engine
	cfg        WorkerParams
	send       func(frame []byte)
	injector   *Injector
	numWorkers int

	// onIterRecv fires when the worker has received results for every block
	// of an iteration (the quantity Fig. 13 measures).
	onIterRecv func(w *Worker, iter int, at sim.Time, gradFraction float64)

	iter     int // current iteration
	maxIter  int // stop after this many iterations
	inComm   bool
	next     int // next block index to send this iteration
	pending  int // sent, result not yet received
	maxSeen  int // highest iteration observed in any result
	recv     map[int]*iterRecv
	finished map[int]bool // iterations whose comm phase is done
	reported map[int]bool // iterations already counted by onIterRecv
	sentAt   []sim.Time   // first-send instant of each block this comm phase
	retxH    sim.Handle   // the comm phase's periodic resend

	gradScratch []int32      // send-side scratch; BuildTrioML copies it out
	frame       packet.Frame // receive-side decode scratch

	// OnResult, when set, sees every accepted result frame; f is decode
	// scratch, valid only during the call.
	OnResult func(f *packet.Frame)

	// Latency summarises each block's first send to the acceptance of its
	// result (under retransmission it spans the whole repair); LastAccept is
	// the instant of the latest accepted result.
	Latency    LatencyStats
	LastAccept sim.Time

	// Stats
	PacketsSent   uint64
	ResultsRecv   uint64
	BlocksSkipped uint64
	Retransmits   uint64
}

// JobID is the Trio-ML job every Worker's contributions belong to: a
// training run is one job.
const JobID = 1

// WorkerParams describes the streaming protocol.
type WorkerParams struct {
	Blocks         int // blocks per iteration
	GradsPerPacket int
	LastBlockGrads int // gradient count of the final block (≤ GradsPerPacket)
	Window         int
	ComputeTime    sim.Time
	Spec           packet.UDPSpec // addressing toward the aggregator

	// RetransmitAfter is the resend period (0 disables): every
	// RetransmitAfter from the start of a communication phase, every sent
	// block still without a result is sent again, in block order. §7
	// sketches this resiliency; the aggregator's source bitmask makes
	// retransmissions idempotent, and a block whose Result packet was lost
	// is simply recreated and aged out again.
	RetransmitAfter sim.Time
}

// LatencyStats is a running count, sum and maximum of block latencies; it
// keeps no per-block record.
type LatencyStats struct {
	N        int
	Sum, Max sim.Time
}

func (l *LatencyStats) add(d sim.Time) {
	l.N++
	l.Sum += d
	l.Max = max(l.Max, d)
}

// MeanUs reports the mean latency in µs, or 0 before any observation.
func (l *LatencyStats) MeanUs() float64 {
	if l.N == 0 {
		return 0
	}
	return float64(l.Sum) / float64(sim.Microsecond) / float64(l.N)
}

type iterRecv struct {
	got map[int]float64 // block index -> contribution fraction
}

// NewWorker builds worker id, contributing as srcID to a job of numWorkers
// sources; send transmits toward the aggregator, and onIterRecv (nil: none)
// fires once the worker holds every result of an iteration. injector (nil:
// none) adds straggler delays to compute.
func NewWorker(eng *sim.Engine, id int, srcID uint8, numWorkers int, cfg WorkerParams,
	injector *Injector, send func([]byte),
	onIterRecv func(*Worker, int, sim.Time, float64)) *Worker {
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.LastBlockGrads == 0 {
		cfg.LastBlockGrads = cfg.GradsPerPacket
	}
	return &Worker{
		ID: id, SrcID: srcID, eng: eng, cfg: cfg, send: send,
		injector: injector, numWorkers: numWorkers, onIterRecv: onIterRecv,
		recv: make(map[int]*iterRecv), finished: make(map[int]bool),
		reported: make(map[int]bool), sentAt: make([]sim.Time, cfg.Blocks),
	}
}

// Start launches the worker for maxIter iterations.
func (w *Worker) Start(maxIter int) {
	w.maxIter = maxIter
	w.startIteration(0)
}

func (w *Worker) startIteration(i int) {
	if i >= w.maxIter {
		return
	}
	w.iter = i
	w.inComm = false
	w.next = 0
	w.pending = 0
	dur := w.cfg.ComputeTime
	if w.injector != nil {
		dur += w.injector.Delay(i, w.ID)
	}
	if dur == 0 {
		w.beginComm(i) // no compute: the first window leaves now, in order
		return
	}
	w.eng.After(dur, func() { w.beginComm(i) })
}

func (w *Worker) beginComm(i int) {
	if w.iter != i || w.inComm {
		return // superseded by a fast-forward, or already begun
	}
	w.inComm = true
	if w.iterComplete(i) {
		// The cluster finished this iteration without us while we slept;
		// skip our contribution (§5: servers receiving partial results
		// divide by src_cnt and move on).
		w.BlocksSkipped += uint64(w.cfg.Blocks)
		w.finishComm(i)
		return
	}
	w.pump()
	if w.cfg.RetransmitAfter > 0 && w.iter == i && !w.finished[i] {
		w.retxH = w.eng.Every(w.cfg.RetransmitAfter, w.cfg.RetransmitAfter, w.resend)
	}
}

// pump keeps Window packets outstanding.
func (w *Worker) pump() {
	r := w.recvState(w.iter)
	for w.pending < w.cfg.Window && w.next < w.cfg.Blocks {
		b := w.next
		w.next++
		if _, done := r.got[b]; done {
			w.BlocksSkipped++
			continue
		}
		w.sentAt[b] = w.eng.Now()
		w.sendBlock(w.iter, b)
		w.pending++
	}
	w.maybeFinishComm()
}

// resend is the one retransmit rule: it sends every block of the comm phase
// that went out and has no result yet again, in block order. A block keeps
// its first-send instant, so its latency spans the whole repair.
func (w *Worker) resend() {
	got := w.recvState(w.iter).got
	for b := 0; b < w.next; b++ {
		if _, done := got[b]; !done {
			w.Retransmits++
			w.sendBlock(w.iter, b)
		}
	}
}

func (w *Worker) maybeFinishComm() {
	if !w.inComm || w.finished[w.iter] {
		return
	}
	if w.next >= w.cfg.Blocks && w.iterComplete(w.iter) {
		w.finishComm(w.iter)
	}
}

func (w *Worker) finishComm(i int) {
	w.finished[i] = true
	w.retxH.Stop()
	// Fast-forward past iterations the cluster already completed.
	nextIter := i + 1
	if w.maxSeen >= nextIter {
		for j := nextIter; j <= w.maxSeen; j++ {
			w.finished[j] = true
			w.BlocksSkipped += uint64(w.cfg.Blocks)
		}
		nextIter = w.maxSeen + 1
	}
	delete(w.recv, i-2) // bounded memory: results older than 2 iterations are dead
	delete(w.reported, i-2)
	w.startIteration(nextIter)
}

func (w *Worker) gradsOf(block int) int {
	if block == w.cfg.Blocks-1 {
		return w.cfg.LastBlockGrads
	}
	return w.cfg.GradsPerPacket
}

func (w *Worker) sendBlock(iter, block int) {
	n := w.gradsOf(block)
	if cap(w.gradScratch) < n {
		w.gradScratch = make([]int32, n)
	}
	grads := w.gradScratch[:n]
	for i := range grads {
		// Deterministic synthetic gradients: verifiable sums downstream.
		grads[i] = int32(w.ID + block + i)
	}
	hdr := packet.TrioML{
		JobID:   JobID,
		BlockID: uint32(iter*w.cfg.Blocks + block),
		SrcID:   w.SrcID,
		GenID:   uint16(iter + 1),
		Final:   block == w.cfg.Blocks-1,
	}
	w.PacketsSent++
	w.send(packet.BuildTrioML(w.cfg.Spec, hdr, grads))
}

func (w *Worker) recvState(iter int) *iterRecv {
	r := w.recv[iter]
	if r == nil {
		r = &iterRecv{got: make(map[int]float64)}
		w.recv[iter] = r
	}
	return r
}

func (w *Worker) iterComplete(iter int) bool {
	return len(w.recvState(iter).got) >= w.cfg.Blocks
}

// OnFrame ingests a frame from the worker's NIC.
func (w *Worker) OnFrame(frame []byte, at sim.Time) {
	f := &w.frame
	if err := packet.DecodeInto(f, frame); err != nil || !f.IsTrioML() || !f.VerifyUDPChecksum() {
		return
	}
	h := f.ML
	if h.JobID != JobID || h.GenID == 0 {
		return
	}
	iter := int(h.GenID) - 1
	block := int(h.BlockID) - iter*w.cfg.Blocks
	if block < 0 || block >= w.cfg.Blocks {
		return
	}
	r := w.recvState(iter)
	if _, dup := r.got[block]; dup {
		return
	}
	w.ResultsRecv++
	frac := float64(h.SrcCnt) / float64(w.numWorkers)
	if frac > 1 {
		frac = 1
	}
	r.got[block] = frac
	w.LastAccept = at
	if iter > w.maxSeen {
		w.maxSeen = iter
	}
	if iter == w.iter && w.inComm && block < w.next {
		w.pending--
		w.Latency.add(at - w.sentAt[block])
	}
	if w.OnResult != nil {
		w.OnResult(f)
	}
	if len(r.got) == w.cfg.Blocks {
		// A late result can recreate the recv state finishComm dropped, so
		// an iteration can complete twice; count each (worker, iteration)
		// once.
		if w.onIterRecv != nil && !w.reported[iter] {
			w.reported[iter] = true
			var sum float64
			for _, fr := range r.got {
				sum += fr
			}
			w.onIterRecv(w, iter, at, sum/float64(w.cfg.Blocks))
		}
	}
	if iter == w.iter && w.inComm {
		w.pump()
	}
}
