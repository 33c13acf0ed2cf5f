package trioml

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trio/smem"
)

// refBuildResult is the result build as it ran before the frame existed:
// each 64-gradient chunk of the aggregation buffer read through the data
// path and decoded, then the header composed and the frame built by
// BuildTrioML from the decoded vector — kept as the oracle for buildResult,
// which reads the buffer straight into the frame.
func (a *Aggregator) refBuildResult(ctx *pfe.Ctx, js *jobState, blockKey uint64, rec BlockRecord, degraded bool) (packet.TrioML, []byte) {
	var grads []int32
	var chunk [4 * resultChunkGrads]byte
	for off := 0; off < int(rec.GradCnt); off += resultChunkGrads {
		n := min(int(rec.GradCnt)-off, resultChunkGrads)
		ctx.ChargeInstr(instrPerResultChunk)
		ctx.ReadVector32BE(uint64(rec.AggrPAddr)+uint64(4*off), chunk[:4*n])
		g, _ := packet.Gradients(chunk[:4*n], n)
		grads = append(grads, g...)
	}
	ctx.ChargeInstr(instrResultHeader)

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
		SrcCnt:   rec.RcvdCnt,
		GradCnt:  rec.GradCnt,
		Degraded: degraded || ageOp > 0,
		AgeOp:    ageOp,
	}
	if js.cfg.UpstreamPort >= 0 {
		hdr.SrcID = js.cfg.UpstreamSrcID
	} else {
		hdr.SrcID = ResultSrcID
	}
	return hdr, packet.BuildTrioML(js.cfg.ResultSpec, hdr, grads)
}

// resultApp runs one result build per packet — buildResult or the reference
// — for the block it is handed, and records the frame and the thread after.
// It first queues backlog asynchronous 64-byte writes to scratch, 8 bytes
// apart so they load every engine, and the build's reads wait behind them
// for as long as the backlog lasts: when each read is issued shows.
type resultApp struct {
	agg      *Aggregator
	ref      bool
	js       *jobState
	key      uint64
	rec      BlockRecord
	degraded bool
	backlog  int
	scratch  uint64

	hdr   packet.TrioML
	frame []byte
	now   sim.Time
	stats microcode.Stats
}

func (r *resultApp) Process(ctx *pfe.Ctx) {
	var zero [64]byte
	for i := range r.backlog {
		ctx.MemWrite(r.scratch+uint64(8*i), zero[:], true)
	}
	if r.ref {
		r.hdr, r.frame = r.agg.refBuildResult(ctx, r.js, r.key, r.rec, r.degraded)
	} else {
		r.hdr, r.frame = r.agg.buildResult(ctx, r.js, r.key, r.rec, r.degraded)
	}
	r.now, r.stats = ctx.Now(), ctx.Stats()
	ctx.Consume()
}

// TestResultFrameMatchesDecodedBuild is the gate for the read-into-frame
// result build: random block sizes 1..1024 (multiples of 16 and 64 and
// not), random buffer contents, degraded or not, behind a random engine
// backlog, for a multicast job and an upstream one. buildResult's frame must be byte-identical to BuildTrioML
// over the decoded buffer, and the thread's time, instruction/XTXN/stall
// counters and every RMW engine's statistics must equal those of the old
// read-then-build order.
func TestResultFrameMatchesDecodedBuild(t *testing.T) {
	const maxBacklog = 2048
	type side struct {
		eng *sim.Engine
		pfe *pfe.PFE
		app *resultApp
	}
	newSide := func(ref bool) side {
		eng := sim.NewEngine()
		p := pfe.New(eng, pfe.Config{})
		a := New(p)
		if err := a.InstallJob(StarJob(1, 4, packet.MaxGradientsPerPacket, 0)); err != nil {
			t.Fatal(err)
		}
		up := JobConfig{JobID: 2, Sources: []uint8{0, 1}, UpstreamPort: 5, UpstreamSrcID: 9, BlockCntMax: 4,
			ResultSpec: packet.UDPSpec{SrcIP: [4]byte{10, 0, 1, 100}, DstIP: [4]byte{10, 0, 9, 1}, SrcPort: 7000,
				IPOptions: []byte{1, 1, 1, 0}}}
		if err := a.InstallJob(up); err != nil {
			t.Fatal(err)
		}
		app := &resultApp{agg: a, ref: ref, scratch: p.Mem.Alloc(smem.TierDRAM, 8*maxBacklog+64)}
		p.SetApp(app)
		return side{eng, p, app}
	}
	ref, got := newSide(true), newSide(false)
	rng := rand.New(rand.NewSource(3))
	sizes := []int{1, 2, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1023, 1024}
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(packet.MaxGradientsPerPacket)
		if i < len(sizes) {
			n = sizes[i]
		}
		job := uint8(1 + i%2)
		levelCode := uint8(rng.Intn(4))
		degraded := rng.Intn(3) == 0
		buf := make([]byte, 4*n)
		rng.Read(buf)
		for k := 0; k < n; k += 1 + rng.Intn(8) { // lanes at the int32 edges
			binary.BigEndian.PutUint32(buf[4*k:], []uint32{0x7FFFFFFF, 0x80000000, 0xFFFFFFFF}[rng.Intn(3)])
		}
		js := ref.app.agg.jobs[job] // both sides installed the same pools
		rec := BlockRecord{GradCnt: uint16(n), AggrPAddr: uint32(js.freeBufs[rng.Intn(len(js.freeBufs))]),
			RcvdCnt: uint8(1 + rng.Intn(4)), GenID: uint16(rng.Intn(1 << 16)), AggAgeOp: uint8(rng.Intn(3))}
		key := Key(job, uint32(rng.Intn(1<<20)))
		gap := sim.Time(1+rng.Intn(200)) * sim.Nanosecond
		backlog := rng.Intn(maxBacklog)
		for _, sd := range []side{ref, got} {
			sd.pfe.Mem.WriteRaw(uint64(rec.AggrPAddr), buf)
			sd.app.agg.LevelCode = levelCode
			sd.app.js, sd.app.key, sd.app.rec, sd.app.degraded = sd.app.agg.jobs[job], key, rec, degraded
			sd.app.backlog = backlog
			sd.eng.RunUntil(sd.eng.Now() + gap)
			sd.pfe.Inject(0, uint64(i), []byte{0})
			sd.eng.Run()
		}
		what := fmt.Sprintf("block %d: job %d, %d gradients, degraded=%v", i, job, n, degraded)
		if !bytes.Equal(got.app.frame, ref.app.frame) || got.app.hdr != ref.app.hdr {
			t.Fatalf("%s: frame differs from BuildTrioML over the decoded buffer", what)
		}
		if got.app.now != ref.app.now || got.app.stats != ref.app.stats {
			t.Fatalf("%s: thread ended at %v with %+v, reference %v with %+v", what, got.app.now, got.app.stats, ref.app.now, ref.app.stats)
		}
		if !reflect.DeepEqual(got.pfe.Mem.Stats(), ref.pfe.Mem.Stats()) {
			t.Fatalf("%s: RMW engine stats diverge", what)
		}
		f, err := packet.Decode(got.app.frame)
		if err != nil || !f.VerifyUDPChecksum() || !bytes.Equal(f.Payload, buf) {
			t.Fatalf("%s: frame does not decode to the buffer with a good checksum (%v)", what, err)
		}
	}
}

// BenchmarkResultBuild is one 1024-gradient block's result build, thread
// dispatch included: read straight into the frame, and through the
// read-decode-BuildTrioML reference.
func BenchmarkResultBuild(b *testing.B) {
	for _, side := range []struct {
		name string
		ref  bool
	}{{"frame", false}, {"decoded", true}} {
		b.Run(side.name, func(b *testing.B) {
			eng := sim.NewEngine()
			p := pfe.New(eng, pfe.Config{})
			a := New(p)
			if err := a.InstallJob(StarJob(1, 4, packet.MaxGradientsPerPacket, 0)); err != nil {
				b.Fatal(err)
			}
			js := a.jobs[1]
			rec := BlockRecord{GradCnt: packet.MaxGradientsPerPacket, AggrPAddr: uint32(js.freeBufs[0]), RcvdCnt: 4}
			p.SetApp(&resultApp{agg: a, ref: side.ref, js: js, key: Key(1, 7), rec: rec})
			pkt := []byte{0}
			for b.Loop() {
				p.Inject(0, 0, pkt)
				eng.Run()
			}
		})
	}
}
