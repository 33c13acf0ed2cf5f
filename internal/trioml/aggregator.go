package trioml

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/trioml/triogo/internal/aggcore"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/replay"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trio/smem"
)

// Instruction cost model, calibrated to the paper's Microcode analysis
// (§6.3): the program is ≈60 static instructions; the tail-aggregation loop
// runs ≈1.2 instructions per gradient; the result-build loop runs once per
// block and is cheaper per gradient.
const (
	instrPacketOverhead = 10 // parse, key build, hash lookup glue
	instrBlockCreate    = 12 // record init, job update, buffer hookup
	instrPerChunk       = 20 // 16 gradients per 64-byte chunk ⇒ 1.25 instr/gradient
	chunkGrads          = 16 // 64-byte tail chunks (Fig. 10)
	resultChunkGrads    = 64 // 256-byte result-build chunks (Fig. 10)
	instrPerResultChunk = 16 // once per block, "uses less processing time"
	instrResultHeader   = 12 // rebuild IP/UDP/Trio-ML headers from records
)

// RecommendedPFEConfig is pfe.DefaultConfig, which the benchmark rigs still
// build their PFEs from; the operating point itself is constants in pfe,
// smem and microcode.
func RecommendedPFEConfig() pfe.Config { return pfe.DefaultConfig() }

// JobConfig is the control-plane description of one aggregation job.
type JobConfig struct {
	JobID   uint8
	Sources []uint8 // expected src_ids (workers, or lower-level PFEs)

	BlockCntMax  int      // max concurrent blocks (memory sharing cap); default 4095
	BlockGradMax int      // max gradients per block; default 1024
	BlockExpiry  sim.Time // straggler timeout; default 10 ms (rounded to ms in the record)

	// Result routing. Single-level jobs multicast results to ResultPorts.
	// First-level jobs in a hierarchy instead unicast upward: set
	// UpstreamPort >= 0 and the src_id this aggregator contributes as.
	ResultSpec    packet.UDPSpec
	ResultPorts   []int
	UpstreamPort  int // -1 when unused
	UpstreamSrcID uint8

	// DistributePorts re-multicast Result packets (src_id == ResultSrcID)
	// arriving from an upper-level aggregator to local workers.
	DistributePorts []int
}

// StarJob returns the single-level job of the §6 testbed: n servers on ports
// 0..n-1 of one PFE, server i contributing as src_id i, results multicast
// back out the same n ports. Zero gradMax and expiry take InstallJob's
// defaults.
func StarJob(job uint8, n, gradMax int, expiry sim.Time) JobConfig {
	srcs, ports := make([]uint8, n), make([]int, n)
	for i := range srcs {
		srcs[i], ports[i] = uint8(i), i
	}
	return JobConfig{
		JobID: job, Sources: srcs, ResultPorts: ports, UpstreamPort: -1,
		BlockGradMax: gradMax, BlockExpiry: expiry,
		ResultSpec: packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}},
	}
}

// Stats counts aggregator activity.
type Stats struct {
	Packets          uint64
	NonAggPkts       uint64
	NoJobDrops       uint64
	NoBufferDrops    uint64
	StaleDrops       uint64
	Duplicates       uint64
	ResultReplays    uint64 // retransmits answered from the served-result cache
	BlocksCreated    uint64
	BlocksCompleted  uint64
	BlocksDegraded   uint64 // straggler-mitigated partial results
	SourcesDemoted   uint64 // permanent stragglers removed (§5 advanced mitigation)
	ResultsEmitted   uint64
	Distributed      uint64
	GradsAggregated  uint64
	TimerScans       uint64
	TimerScanRecords uint64
}

// jobState is the control-plane mirror of an installed job: the addresses
// behind the in-memory records plus routing config. The authoritative
// aggregation state lives in the PFE's shared memory and hash table.
type jobState struct {
	cfg     JobConfig
	recAddr uint64

	freeBufs []uint64          // aggregation buffer pool (DMEM)
	freeRecs []uint64          // block record pool
	bufOf    map[uint64]uint64 // hash key -> buffer, for pool recycling
	core     aggcore.Job       // src_mask (less demoted sources) and BlockGradMax

	// served holds the emitted Result frames a Replay re-sends, keyed by
	// block (EnableResultReplay; nil when off). Host-side control plane.
	served *replay.Cache[[]byte]
}

// Aggregator is the Trio-ML application on one PFE.
type Aggregator struct {
	pfe  *pfe.PFE
	jobs map[uint8]*jobState

	// LevelCode is the age_op value this aggregator stamps on results it
	// degrades by aging (straggler timeout). Zero behaves as 1, the flat
	// single-router value. Hierarchical trees (internal/tree) assign
	// level+1 so a receiver can tell WHICH level of the tree timed out: 1
	// means a leaf ToR aged waiting on a worker, >= 2 means a spine aged
	// waiting on a whole rack subtree — the signal workers use to
	// distinguish "accept the partial" from "gen-restart the block".
	LevelCode uint8

	stats Stats

	// OnAggregated observes each aggregated packet: arrival, thread
	// completion time, and gradient count (Fig. 15 instrumentation).
	OnAggregated func(arrival, done sim.Time, grads int)
	// OnDemotion observes permanent-straggler demotions (§5 advanced
	// mitigation).
	OnDemotion func(jobID, src uint8, at sim.Time)

	advanced *advancedState

	// Per-packet scratch, reused across Process calls. The simulation is
	// single-threaded and a context runs to completion, so one set suffices;
	// this keeps the Fig. 10 fast path allocation-free.
	frame packet.Frame
	gs    gradStream
	rec   [recordTxnBytes]byte // record read/write staging
}

// New installs a Trio-ML aggregator as p's application.
func New(p *pfe.PFE) *Aggregator {
	a := &Aggregator{pfe: p, jobs: make(map[uint8]*jobState)}
	p.SetApp(a)
	return a
}

// Stats returns a snapshot of the counters.
func (a *Aggregator) Stats() Stats { return a.stats }

// InstallJob performs the control-plane setup of §4: it writes the job
// record, registers it in the aggregation hash table under (job_id, -1), and
// provisions the block-record and aggregation-buffer pools.
func (a *Aggregator) InstallJob(cfg JobConfig) error {
	if _, dup := a.jobs[cfg.JobID]; dup {
		return fmt.Errorf("trioml: job %d already installed", cfg.JobID)
	}
	if len(cfg.Sources) == 0 || len(cfg.Sources) > MaxSources {
		return fmt.Errorf("trioml: job needs 1..%d sources, got %d", MaxSources, len(cfg.Sources))
	}
	if cfg.BlockCntMax == 0 {
		cfg.BlockCntMax = 4095
	}
	if cfg.BlockCntMax > 4095 {
		return fmt.Errorf("trioml: block_cnt_max %d exceeds 12-bit field", cfg.BlockCntMax)
	}
	if cfg.BlockGradMax == 0 {
		cfg.BlockGradMax = packet.MaxGradientsPerPacket
	}
	if cfg.BlockGradMax > 4095 {
		return fmt.Errorf("trioml: block_grad_max %d exceeds 12-bit field", cfg.BlockGradMax)
	}
	if cfg.BlockExpiry == 0 {
		cfg.BlockExpiry = 10 * sim.Millisecond
	}
	expiryMs := int64(cfg.BlockExpiry / sim.Millisecond)
	if expiryMs < 1 || expiryMs > 255 {
		return fmt.Errorf("trioml: block expiry %v outside the record's 1..255 ms range", cfg.BlockExpiry)
	}
	rec := JobRecord{
		BlockCntMax:  uint16(cfg.BlockCntMax),
		BlockGradMax: uint16(cfg.BlockGradMax),
		BlockExpMs:   uint8(expiryMs),
		OutSrcAddr:   binary.BigEndian.Uint32(cfg.ResultSpec.SrcIP[:]),
		OutDstAddr:   binary.BigEndian.Uint32(cfg.ResultSpec.DstIP[:]),
		SrcCnt:       uint8(len(cfg.Sources)),
	}
	for _, s := range cfg.Sources {
		if s == ResultSrcID {
			return fmt.Errorf("trioml: source id %#x is reserved for results", ResultSrcID)
		}
		if rec.SrcMask.Has(s) {
			return fmt.Errorf("trioml: duplicate source id %d", s)
		}
		rec.SrcMask.Set(s)
	}

	// Threads multicast on the port lists without copying them, so the job
	// holds its own: the caller may reuse or change the slices it passed.
	cfg.ResultPorts = slices.Clone(cfg.ResultPorts)
	cfg.DistributePorts = slices.Clone(cfg.DistributePorts)
	// Size the gradient stream's issue-time list for the job's largest
	// block, one time per 64-byte chunk: Decide refuses a contribution
	// claiming more, so the per-packet loop never grows it.
	a.gs.at = slices.Grow(a.gs.at, (cfg.BlockGradMax+chunkGrads-1)/chunkGrads)
	js := &jobState{cfg: cfg, bufOf: make(map[uint64]uint64)}
	js.core = aggcore.NewJob(rec.SrcMask, cfg.BlockGradMax)
	mem := a.pfe.Mem
	js.recAddr = mem.Alloc(smem.TierSRAM, recordTxnBytes)
	buf := make([]byte, recordTxnBytes)
	rec.encode(buf)
	mem.WriteRaw(js.recAddr, buf)

	// Block records live in SRAM (hot, small); aggregation buffers live in
	// the DRAM-backed tier ("the aggregation buffer in the Shared Memory
	// System (DMEM)", Fig. 10).
	for i := 0; i < cfg.BlockCntMax; i++ {
		js.freeRecs = append(js.freeRecs, mem.Alloc(smem.TierSRAM, recordTxnBytes))
		js.freeBufs = append(js.freeBufs, mem.Alloc(smem.TierDRAM, uint64(4*cfg.BlockGradMax)))
	}

	if ok, _ := a.pfe.Hash.Insert(0, Key(cfg.JobID, JobBlockID), js.recAddr); !ok {
		return fmt.Errorf("trioml: hash collision installing job %d", cfg.JobID)
	}
	a.jobs[cfg.JobID] = js
	return nil
}

// EnableResultReplay turns on the served-result cache for a job: the last
// `window` emitted Result frames are retained host-side and replayed to a
// source that retransmits a contribution for an already-served block. Off by
// default — without it, such a retransmit recreates the block and ages out
// as a one-source degraded result, which breaks bit-exactness for the
// retransmitting source. Enable it whenever sources retransmit (fault runs).
func (a *Aggregator) EnableResultReplay(jobID uint8, window int) error {
	js := a.jobs[jobID]
	if js == nil {
		return fmt.Errorf("trioml: job %d not installed", jobID)
	}
	if window <= 0 {
		window = 1024
	}
	js.served = replay.New[[]byte](window)
	return nil
}

// Process implements pfe.App: the Fig. 10 workflow, deciding each
// contribution with aggcore.Decide. The job is checked against its
// control-plane mirror, which costs no instruction and no XTXN.
func (a *Aggregator) Process(ctx *pfe.Ctx) {
	ctx.ChargeInstr(instrPacketOverhead)
	f := &a.frame
	if err := packet.DecodeInto(f, ctx.Head()); err != nil || !f.IsTrioML() {
		a.stats.NonAggPkts++
		ctx.Drop()
		return
	}
	h := f.ML
	if h.SrcID == ResultSrcID {
		a.distribute(ctx, h)
		return
	}
	a.stats.Packets++

	js := a.jobs[h.JobID]
	blockKey := Key(h.JobID, h.BlockID)

	// Lookup block record (job_id, block_id).
	recAddr, found := ctx.HashLookup(blockKey)
	if js == nil {
		ctx.HashLookup(Key(h.JobID, JobBlockID)) // misses: no job record either
		a.stats.NoJobDrops++
		ctx.Drop()
		return
	}
	var rec BlockRecord
	var blk aggcore.Block
	var served []byte
	if found {
		ctx.MemReadInto(recAddr, a.rec[:])
		rec = decodeBlock(a.rec[:])
		blk = aggcore.Record(rec.GenID, int(rec.GradCnt), &rec.RcvdMask)
	} else if js.served != nil {
		if frame, gen, ok := js.served.Lookup(blockKey); ok {
			served, blk = frame, aggcore.Cached(gen)
		}
	}
	act := aggcore.Decide(h.SrcID, h.GenID, int(h.GradCnt), &js.core, &blk)
	if found && !act.Adds() {
		// Only an added contribution is a reference: a source retransmitting
		// until its Result arrives must not keep the record from aging (§5).
		ctx.HashClearRef(blockKey)
	}
	switch act {
	case aggcore.Refuse:
		a.stats.NonAggPkts++
	case aggcore.Stale:
		a.stats.StaleDrops++
	case aggcore.Duplicate:
		a.stats.Duplicates++
	case aggcore.Replay:
		// The exact frame the completion emitted: every source gets one sum.
		ctx.ChargeInstr(instrResultHeader)
		emitResult(ctx, js, served)
		a.stats.ResultReplays++
		ctx.Consume()
		return
	case aggcore.Open:
		if served != nil {
			js.served.Delete(blockKey)
		}
		// Consult the job record (job_id, -1).
		jobAddr, ok := ctx.HashLookup(Key(h.JobID, JobBlockID))
		if !ok {
			a.stats.NoJobDrops++
			ctx.Drop()
			return
		}
		ctx.MemReadInto(jobAddr, a.rec[:])
		job := decodeJob(a.rec[:])
		if int(job.BlockCurrCnt) >= int(job.BlockCntMax) || len(js.freeBufs) == 0 {
			a.stats.NoBufferDrops++
			ctx.Drop()
			return
		}
		ctx.ChargeInstr(instrBlockCreate)
		recAddr = js.freeRecs[len(js.freeRecs)-1]
		js.freeRecs = js.freeRecs[:len(js.freeRecs)-1]
		bufAddr := js.freeBufs[len(js.freeBufs)-1]
		js.freeBufs = js.freeBufs[:len(js.freeBufs)-1]
		js.bufOf[blockKey] = bufAddr
		rec = BlockRecord{
			BlockExpMs:     job.BlockExpMs,
			BlockStartTime: ctx.Now(),
			JobCtxPAddr:    uint32(jobAddr),
			AggrPAddr:      uint32(bufAddr),
			GradCnt:        h.GradCnt,
			GenID:          h.GenID,
		}
		ctx.HashInsert(blockKey, recAddr)
		// Job bookkeeping: one in-memory update, asynchronous.
		job.BlockCurrCnt++
		job.BlockTotalCnt++
		a.writeJob(ctx, jobAddr, job)
		a.stats.BlocksCreated++
	case aggcore.Restart:
		// The first source's writes (below) overwrite the stale buffer.
		rec.GenID, rec.GradCnt, rec.BlockStartTime = h.GenID, h.GradCnt, ctx.Now()
		rec.RcvdCnt, rec.RcvdMask, rec.AggAgeOp = 0, aggcore.Mask{}, 0
	}
	if !act.Adds() {
		ctx.Drop()
		return
	}

	// Straggler provenance: a lower-level aggregator's partial carries the
	// age_op of the level that timed out; the block remembers the highest
	// so the result it eventually emits preserves where in the tree the
	// degradation originated.
	if h.AgeOp > rec.AggAgeOp {
		rec.AggAgeOp = h.AgeOp
	}

	// Aggregate this packet's gradients into the block buffer: phase one
	// from the head, phase two looping over 64-byte tail chunks (Fig. 10).
	// A generation's first source writes the buffer; later sources add.
	a.aggregateGradients(ctx, f, h, uint64(rec.AggrPAddr), act != aggcore.Add)

	rec.RcvdMask.Set(h.SrcID)
	rec.RcvdCnt++
	a.stats.GradsAggregated += uint64(h.GradCnt)

	// Completeness check against the job record's source count.
	ctx.MemReadInto(uint64(rec.JobCtxPAddr), a.rec[:])
	job := decodeJob(a.rec[:])
	if rec.RcvdCnt >= job.SrcCnt {
		a.finishBlock(ctx, js, blockKey, recAddr, rec, job, false)
	} else {
		a.writeBlock(ctx, recAddr, rec)
	}
	ctx.Consume()
	if a.OnAggregated != nil {
		a.OnAggregated(ctx.Packet().Arrival, ctx.Now(), int(h.GradCnt))
	}
}

// gradStream is the streaming state of aggregateGradients. It lives on the
// Aggregator so its issue-time list, sized by InstallJob, is reused across
// packets — the tail-aggregation loop runs per packet and must not allocate.
//
// The stream walks the Fig. 10 loop in virtual time: as the gradient bytes
// arrive, head first and then tail read by tail read, it charges a 64-byte
// chunk's instructions the moment the chunk's last byte arrives and records
// the thread's clock then, the chunk's issue time. Head/tail misalignment
// (the head ends mid-gradient at the 192-byte split) needs no special case
// because the walk counts bytes. The bytes themselves never move: finish
// hands the packet's whole run of whole gradients, a view of the frame, to
// shared memory in one call, one XTXN per chunk booked at its recorded time.
// The first source of a block writes the wire bytes as they are (padded to
// the 8-byte transaction grain), later sources have the engines add them as
// wire lanes; a gradient is never decoded on the way.
//
// Handing the run over at the end of the loop is exact: the RMW ops are
// asynchronous, so they never move the thread's clock, a thread runs to
// completion inside Process, and between two chunks the loop issues only
// tail reads, which are Packet Buffer XTXNs of fixed latency. Nothing
// touches shared memory between one chunk's issue and the next, so the
// engines see the request sequence one call per chunk would have given them.
type gradStream struct {
	ctx   *pfe.Ctx
	lanes []byte // the packet's gradient bytes, wire order
	addr  uint64 // aggregation-buffer address of the first gradient
	first bool
	want  int        // gradient bytes grad_cnt claims
	got   int        // gradient bytes arrived
	at    []sim.Time // issue time of each chunk whose last byte has arrived
}

// consume takes the arrival of the next n gradient bytes, charging each
// chunk and recording its issue time the moment its last byte arrives.
func (g *gradStream) consume(n int) {
	g.got += min(n, g.want-g.got)
	for 4*chunkGrads*(len(g.at)+1) <= g.got {
		g.ctx.ChargeInstr(instrPerChunk)
		g.at = append(g.at, g.ctx.Now())
	}
}

// aggregateGradients streams the packet's gradient bytes — head first, then
// the tail in 64-byte chunks — and issues one RMW engine vector op per
// 16-gradient batch. The first source of a block writes (initializing the
// buffer); later sources add.
func (a *Aggregator) aggregateGradients(ctx *pfe.Ctx, f *packet.Frame, h *packet.TrioML, bufAddr uint64, firstSource bool) {
	hdrLen := packet.EthernetLen + f.IP.HeaderLen() + packet.UDPLen + packet.TrioMLHeaderLen
	head := ctx.Head()

	g := &a.gs
	// The gradients are read from the frame itself: the head in local memory
	// is a copy of its first bytes, and the aggregator never rewrites it.
	g.start(ctx, ctx.Packet().Frame[hdrLen:], bufAddr, firstSource, int(h.GradCnt))
	if hdrLen < len(head) {
		g.consume(len(head) - hdrLen)
	}
	// Phase two: tail loop, 64 bytes per XTXN.
	for off := 0; off < ctx.TailLen() && g.got < g.want; off += 64 {
		g.consume(len(ctx.ReadTail(off, 64)))
	}
	g.finish()
}

// start readies g for a packet of grads gradients, lanes its gradient bytes,
// bound for bufAddr.
func (g *gradStream) start(ctx *pfe.Ctx, lanes []byte, bufAddr uint64, first bool, grads int) {
	g.ctx = ctx
	g.lanes = lanes
	g.addr = bufAddr
	g.first = first
	g.want, g.got = 4*grads, 0
	g.at = g.at[:0]
}

// finish charges the whole gradients of a last partial chunk, then issues
// the packet's whole gradients to shared memory, chunk i at at[i].
func (g *gradStream) finish() {
	if grads := (g.got - 4*chunkGrads*len(g.at)) / 4; grads > 0 {
		g.ctx.ChargeInstr(instrPerChunk * grads / chunkGrads)
		g.at = append(g.at, g.ctx.Now())
	}
	lanes := g.lanes[:g.got&^3]
	if g.first {
		g.ctx.MemWriteAt(g.at, g.addr, lanes)
	} else {
		g.ctx.AddVector32BE(g.at, g.addr, lanes)
	}
	g.ctx, g.lanes = nil, nil
}

// finishBlock generates the Result packet, recycles the block's resources,
// and updates the job record. Degraded results carry the straggler
// signalling fields of §5.
func (a *Aggregator) finishBlock(ctx *pfe.Ctx, js *jobState, blockKey uint64, recAddr uint64, rec BlockRecord, job JobRecord, degraded bool) {
	_, frame := a.buildResult(ctx, js, blockKey, rec, degraded)
	emitResult(ctx, js, frame)
	if js.served != nil {
		js.served.Put(blockKey, rec.GenID, frame)
	}
	a.stats.ResultsEmitted++
	if degraded {
		a.stats.BlocksDegraded++
	} else {
		a.stats.BlocksCompleted++
	}

	// Recycle: delete the record, free the buffer, update the job.
	ctx.HashDelete(blockKey)
	js.freeRecs = append(js.freeRecs, recAddr)
	if buf, ok := js.bufOf[blockKey]; ok {
		js.freeBufs = append(js.freeBufs, buf)
		delete(js.bufOf, blockKey)
	}
	if job.BlockCurrCnt > 0 {
		job.BlockCurrCnt--
	}
	a.writeJob(ctx, uint64(rec.JobCtxPAddr), job)
}

// buildResult lays out the block's Result frame and reads the aggregation
// buffer straight into its gradient bytes. The header depends only on the
// record, the job and degraded, so the frame exists before the result-build
// loop pulls 256-byte chunks from the buffer into it (Fig. 10); the gradients
// stay big-endian lanes from memory to wire.
func (a *Aggregator) buildResult(ctx *pfe.Ctx, js *jobState, blockKey uint64, rec BlockRecord, degraded bool) (packet.TrioML, []byte) {
	// Compose the degradation provenance: aging HERE stamps this
	// aggregator's level code; a block whose contributions were already
	// partial (a lower level aged) keeps the highest level seen. Either
	// way the result is marked degraded so receivers know the sum is not
	// the full fan-in, exactly as in the flat §5 protocol when
	// LevelCode is unset.
	ageOp := rec.AggAgeOp
	if degraded {
		lc := a.LevelCode
		if lc == 0 {
			lc = 1
		}
		if lc > ageOp {
			ageOp = lc
		}
	}
	_, blockID := SplitKey(blockKey)
	hdr := packet.TrioML{
		JobID:    js.cfg.JobID,
		BlockID:  blockID,
		GenID:    rec.GenID,
		SrcID:    ResultSrcID,
		SrcCnt:   rec.RcvdCnt,
		GradCnt:  rec.GradCnt,
		Degraded: degraded || ageOp > 0,
		AgeOp:    ageOp,
	}
	if js.cfg.UpstreamPort >= 0 {
		// Hierarchical first level: contribute upward as one source.
		hdr.SrcID = js.cfg.UpstreamSrcID
	}
	frame, grads := packet.TrioMLFrame(js.cfg.ResultSpec, hdr, int(rec.GradCnt))
	for off := 0; off < len(grads); off += 4 * resultChunkGrads {
		ctx.ChargeInstr(instrPerResultChunk)
		ctx.ReadVector32BE(uint64(rec.AggrPAddr)+uint64(off), grads[off:min(off+4*resultChunkGrads, len(grads))])
	}
	ctx.ChargeInstr(instrResultHeader)
	packet.SetUDPChecksum(frame)
	return hdr, frame
}

// emitResult sends a Result frame upward (a hierarchy's first level) or
// multicasts it to the job's result ports.
func emitResult(ctx *pfe.Ctx, js *jobState, frame []byte) {
	if js.cfg.UpstreamPort >= 0 {
		ctx.Emit(js.cfg.UpstreamPort, frame)
		return
	}
	ctx.Multicast(js.cfg.ResultPorts, frame)
}

// distribute re-multicasts a Result packet arriving from an upper-level
// aggregator to this PFE's local workers.
func (a *Aggregator) distribute(ctx *pfe.Ctx, h *packet.TrioML) {
	js := a.jobs[h.JobID]
	if js == nil || len(js.cfg.DistributePorts) == 0 {
		a.stats.NonAggPkts++
		ctx.Drop()
		return
	}
	ctx.ChargeInstr(4)
	ctx.Multicast(js.cfg.DistributePorts, ctx.FullFrame())
	a.stats.Distributed++
	ctx.Consume()
}

// writeBlock persists a block record (asynchronous 64-byte write-back).
// The shared staging buffer is cleared first so padding bits stay zero,
// exactly as with a fresh allocation.
func (a *Aggregator) writeBlock(ctx *pfe.Ctx, addr uint64, rec BlockRecord) {
	b := a.rec[:]
	clear(b)
	rec.encode(b)
	ctx.MemWrite(addr, b, true)
}

// writeJob persists a job record.
func (a *Aggregator) writeJob(ctx *pfe.Ctx, addr uint64, job JobRecord) {
	b := a.rec[:]
	clear(b)
	job.encode(b)
	ctx.MemWrite(addr, b, true)
}

var _ pfe.App = (*Aggregator)(nil)
