package trioml

import (
	"encoding/binary"
	"fmt"

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
	// StaticInstructions is the static size of the aggregation program.
	StaticInstructions = 60

	instrPacketOverhead = 10 // parse, key build, hash lookup glue
	instrBlockCreate    = 12 // record init, job update, buffer hookup
	instrPerChunk       = 20 // 16 gradients per 64-byte chunk ⇒ 1.25 instr/gradient
	chunkGrads          = 16 // 64-byte tail chunks (Fig. 10)
	resultChunkGrads    = 64 // 256-byte result-build chunks (Fig. 10)
	instrPerResultChunk = 16 // once per block, "uses less processing time"
	instrResultHeader   = 12 // rebuild IP/UDP/Trio-ML headers from records
)

// RecommendedPFEConfig returns a PFE configuration matching the measured
// 5th-generation operating point: a thread has one instruction in flight at
// a time, so its effective per-instruction latency is the PPE pipeline depth
// (≈20 cycles at 1 GHz), and the shared memory runs 12 RMW engines.
func RecommendedPFEConfig() pfe.Config {
	cfg := pfe.DefaultConfig()
	cfg.CyclesPerInst = 20
	cfg.Mem = smem.Config{NumRMWEngines: 12}
	return cfg
}

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
	demoted  map[uint8]bool    // sources removed by advanced mitigation

	// Served-result replay cache (EnableResultReplay; nil when off). A
	// contribution for a block whose result was already emitted gets the
	// original Result frame re-sent instead of recreating a one-source
	// record — the end-host retry idempotence NetRPC argues in-network
	// compute needs. Host-side control-plane state: block key -> the
	// emitted Result frame, bounded by the cache's window.
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
	// OnResult observes each emitted result.
	OnResult func(hdr packet.TrioML, at sim.Time)
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
	seen := map[uint8]bool{}
	for _, s := range cfg.Sources {
		if s == ResultSrcID {
			return fmt.Errorf("trioml: source id %#x is reserved for results", ResultSrcID)
		}
		if seen[s] {
			return fmt.Errorf("trioml: duplicate source id %d", s)
		}
		seen[s] = true
		setMaskBit(&rec.SrcMask, s)
	}

	js := &jobState{cfg: cfg, bufOf: make(map[uint64]uint64)}
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

// Process implements pfe.App: the Fig. 10 workflow.
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
	var rec BlockRecord
	creating := false
	if found {
		ctx.MemReadInto(recAddr, a.rec[:])
		rec = decodeBlock(a.rec[:])
		switch {
		case h.GenID == rec.GenID && maskBit(&rec.RcvdMask, h.SrcID):
			// A retransmitted duplicate is not forward progress: undo the
			// REF the lookup just took, or periodic retransmission from a
			// source missing its Result would keep refreshing the record
			// and livelock the §5 aging that is supposed to release it.
			a.stats.Duplicates++
			ctx.HashClearRef(blockKey)
			ctx.Drop()
			return
		case h.GenID != rec.GenID && genOlder(h.GenID, rec.GenID):
			// A straggler's contribution to an iteration that already aged
			// out and was superseded.
			a.stats.StaleDrops++
			ctx.Drop()
			return
		case h.GenID != rec.GenID:
			// The block id is being reused by a newer iteration: restart
			// the record in place; the first source's writes (below)
			// overwrite the stale buffer.
			rec.GenID = h.GenID
			rec.RcvdCnt = 0
			rec.RcvdMask = [4]uint64{}
			rec.AggAgeOp = 0
			rec.GradCnt = h.GradCnt
			rec.BlockStartTime = ctx.Now()
			creating = true
		}
	} else {
		// Block not found: a contribution for an already-served block is a
		// retransmit whose Result got lost — replay the cached frame (when
		// the cache is on) instead of recreating a one-source record.
		if js != nil && js.served != nil {
			if frame, gen, ok := js.served.Lookup(blockKey); ok {
				switch {
				case h.GenID == gen:
					a.replayResult(ctx, js, frame)
					return
				case genOlder(h.GenID, gen):
					a.stats.StaleDrops++
					ctx.Drop()
					return
				default:
					// A newer generation reuses the block id; the cached
					// result is dead.
					js.served.Delete(blockKey)
				}
			}
		}
		// Consult the job record (job_id, -1).
		jobAddr, ok := ctx.HashLookup(Key(h.JobID, JobBlockID))
		if !ok || js == nil {
			a.stats.NoJobDrops++
			ctx.Drop()
			return
		}
		ctx.MemReadInto(jobAddr, a.rec[:])
		job := decodeJob(a.rec[:])
		if !maskBit(&job.SrcMask, h.SrcID) || int(h.GradCnt) > int(job.BlockGradMax) || h.GradCnt == 0 {
			a.stats.NonAggPkts++
			ctx.Drop()
			return
		}
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
		creating = true
		a.stats.BlocksCreated++
	}

	if int(h.GradCnt) != int(rec.GradCnt) {
		// All sources of a block must agree on its size.
		a.stats.NonAggPkts++
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
	firstSource := rec.RcvdCnt == 0 && creating
	a.aggregateGradients(ctx, f, h, uint64(rec.AggrPAddr), firstSource)

	setMaskBit(&rec.RcvdMask, h.SrcID)
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

// genOlder reports whether a precedes b in modular 16-bit generation order.
func genOlder(a, b uint16) bool { return int16(a-b) < 0 }

// gradStream is the streaming state of aggregateGradients. It lives on the
// Aggregator so the staging buffers are reused across packets — the
// tail-aggregation loop runs per packet and must not allocate.
//
// Gradient bytes are staged as they arrive, wire order, until a 64-byte chunk
// is whole; head/tail misalignment (the head ends mid-gradient at the default
// 192-byte split) needs no special case because the staging is bytewise. The
// staged bytes go to shared memory as they are: the RMW vector add takes
// big-endian wire lanes, so a gradient is never decoded on the way.
type gradStream struct {
	ctx   *pfe.Ctx
	addr  uint64 // aggregation-buffer address of the staged chunk
	first bool
	left  int                  // gradient bytes the packet still owes
	n     int                  // bytes staged in chunk
	chunk [4 * chunkGrads]byte // wire bytes of the chunk being assembled
}

// consume stages the next gradient bytes, charging and flushing each chunk
// the moment its last byte arrives.
func (g *gradStream) consume(b []byte) {
	b = b[:min(len(b), g.left)]
	g.left -= len(b)
	for len(b) > 0 {
		k := copy(g.chunk[g.n:], b)
		g.n, b = g.n+k, b[k:]
		if g.n == len(g.chunk) {
			g.ctx.ChargeInstr(instrPerChunk)
			g.flush()
		}
	}
}

// flush issues the staged whole gradients as one XTXN: the first source of a
// block writes the wire bytes as they are (padded to the 8-byte transaction
// grain), later sources have the engines add them as wire lanes.
func (g *gradStream) flush() {
	n := g.n &^ 3
	if g.first {
		pad := n + n%8
		clear(g.chunk[n:pad])
		g.ctx.MemWrite(g.addr, g.chunk[:pad], true)
	} else {
		g.ctx.AddVector32BE(g.addr, g.chunk[:n])
	}
	g.addr += uint64(n)
	g.n = 0
}

// aggregateGradients streams the packet's gradient bytes — head first, then
// the tail in 64-byte chunks — and issues one RMW engine vector op per
// 16-gradient batch. The first source of a block writes (initializing the
// buffer); later sources add.
func (a *Aggregator) aggregateGradients(ctx *pfe.Ctx, f *packet.Frame, h *packet.TrioML, bufAddr uint64, firstSource bool) {
	hdrLen := packet.EthernetLen + f.IP.HeaderLen() + packet.UDPLen + packet.TrioMLHeaderLen
	head := ctx.Head()

	g := &a.gs
	g.ctx = ctx
	g.addr = bufAddr
	g.first = firstSource
	g.left = 4 * int(h.GradCnt)
	g.n = 0

	if hdrLen < len(head) {
		g.consume(head[hdrLen:])
	}
	// Phase two: tail loop, 64 bytes per XTXN.
	for off := 0; off < ctx.TailLen() && g.left > 0; off += 64 {
		g.consume(ctx.ReadTail(off, 64))
	}
	if grads := g.n / 4; grads > 0 {
		ctx.ChargeInstr(instrPerChunk * grads / chunkGrads)
		g.flush()
	}
	g.ctx = nil
}

// finishBlock generates the Result packet, recycles the block's resources,
// and updates the job record. Degraded results carry the straggler
// signalling fields of §5.
func (a *Aggregator) finishBlock(ctx *pfe.Ctx, js *jobState, blockKey uint64, recAddr uint64, rec BlockRecord, job JobRecord, degraded bool) {
	hdr, frame := a.buildResult(ctx, js, blockKey, rec, degraded)
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
	if a.OnResult != nil {
		a.OnResult(hdr, ctx.Now())
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
	for _, p := range js.cfg.ResultPorts {
		ctx.Emit(p, frame)
	}
}

// replayResult re-emits a cached Result frame for a retransmitted
// contribution to an already-served block. The replayed bytes are the exact
// frame the block's completion emitted, so every source converges on
// identical sums no matter how many Result deliveries were lost.
func (a *Aggregator) replayResult(ctx *pfe.Ctx, js *jobState, frame []byte) {
	ctx.ChargeInstr(instrResultHeader)
	emitResult(ctx, js, frame)
	a.stats.ResultReplays++
	ctx.Consume()
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
	frame := ctx.FullFrame()
	for _, p := range js.cfg.DistributePorts {
		ctx.Emit(p, frame)
	}
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
