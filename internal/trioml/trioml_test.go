package trioml

import (
	"bytes"
	"testing"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
)

type result struct {
	port  int
	hdr   packet.TrioML
	grads []int32
	at    sim.Time
}

type rig struct {
	eng     *sim.Engine
	pfe     *pfe.PFE
	agg     *Aggregator
	results []result
}

func newRig(t *testing.T, cfg JobConfig) *rig {
	t.Helper()
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	a := New(p)
	r := &rig{eng: eng, pfe: p, agg: a}
	p.SetOutput(func(port int, frame []byte, at sim.Time) {
		f, err := packet.Decode(frame)
		if err != nil || !f.IsTrioML() {
			t.Errorf("non-trioml egress frame: %v", err)
			return
		}
		grads, err := packet.Gradients(f.Payload, int(f.ML.GradCnt))
		if err != nil {
			t.Errorf("bad result gradients: %v", err)
			return
		}
		r.results = append(r.results, result{port: port, hdr: *f.ML, grads: grads, at: at})
	})
	if cfg.UpstreamPort == 0 {
		cfg.UpstreamPort = -1
	}
	if err := a.InstallJob(cfg); err != nil {
		t.Fatalf("install job: %v", err)
	}
	return r
}

func fourWorkerJob() JobConfig {
	return JobConfig{
		JobID:        1,
		Sources:      []uint8{0, 1, 2, 3},
		ResultPorts:  []int{0, 1, 2, 3},
		UpstreamPort: -1,
		ResultSpec: packet.UDPSpec{
			SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}, SrcPort: packet.TrioMLPort,
		},
	}
}

func (r *rig) send(worker int, block uint32, gen uint16, grads []int32) {
	frame := packet.BuildTrioML(packet.UDPSpec{
		SrcIP: [4]byte{10, 0, 0, byte(worker + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 6000,
	}, packet.TrioML{JobID: 1, BlockID: block, SrcID: uint8(worker), GenID: gen}, grads)
	r.pfe.Inject(worker%r.pfe.Cfg.NumPorts, uint64(worker)<<32|uint64(block), frame)
}

func seqGrads(n int, scale int32) []int32 {
	g := make([]int32, n)
	for i := range g {
		g[i] = scale * int32(i+1)
	}
	return g
}

func TestSingleLevelAggregation(t *testing.T) {
	r := newRig(t, fourWorkerJob())
	for w := 0; w < 4; w++ {
		r.send(w, 5, 1, seqGrads(256, int32(w+1)))
	}
	r.eng.Run()
	// Multicast: one result per worker port.
	if len(r.results) != 4 {
		t.Fatalf("results = %d", len(r.results))
	}
	ports := map[int]bool{}
	for _, res := range r.results {
		ports[res.port] = true
		if res.hdr.BlockID != 5 || res.hdr.SrcCnt != 4 || res.hdr.Degraded {
			t.Fatalf("hdr = %+v", res.hdr)
		}
		if res.hdr.SrcID != ResultSrcID {
			t.Fatalf("result src_id = %d", res.hdr.SrcID)
		}
		for i, g := range res.grads {
			want := int32(10 * (i + 1)) // scales 1+2+3+4
			if g != want {
				t.Fatalf("gradient %d = %d, want %d", i, g, want)
			}
		}
	}
	if len(ports) != 4 {
		t.Fatalf("multicast reached ports %v", ports)
	}
	st := r.agg.Stats()
	if st.BlocksCreated != 1 || st.BlocksCompleted != 1 || st.Packets != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLargeBlockUsesTailPath(t *testing.T) {
	// 1024 gradients = 4 KB packets: most gradients live in the tail.
	r := newRig(t, fourWorkerJob())
	for w := 0; w < 4; w++ {
		r.send(w, 0, 1, seqGrads(1024, 1))
	}
	r.eng.Run()
	if len(r.results) != 4 {
		t.Fatalf("results = %d", len(r.results))
	}
	for i, g := range r.results[0].grads {
		if g != int32(4*(i+1)) {
			t.Fatalf("gradient %d = %d, want %d", i, g, 4*(i+1))
		}
	}
	if r.agg.Stats().GradsAggregated != 4096 {
		t.Fatalf("grads aggregated = %d", r.agg.Stats().GradsAggregated)
	}
}

func TestNegativeGradientsSumCorrectly(t *testing.T) {
	r := newRig(t, fourWorkerJob())
	vals := [][]int32{
		{100, -200, 3, -4},
		{-50, 100, -3, 4},
		{25, -50, 0, 0},
		{-75, 150, 0, 0},
	}
	for w := 0; w < 4; w++ {
		r.send(w, 1, 1, vals[w])
	}
	r.eng.Run()
	want := []int32{0, 0, 0, 0}
	got := r.results[0].grads
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gradient %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNoResultUntilAllSources(t *testing.T) {
	r := newRig(t, fourWorkerJob())
	for w := 0; w < 3; w++ {
		r.send(w, 2, 1, seqGrads(64, 1))
	}
	r.eng.Run()
	if len(r.results) != 0 {
		t.Fatal("result emitted before all sources contributed")
	}
	r.send(3, 2, 1, seqGrads(64, 1))
	r.eng.Run()
	if len(r.results) != 4 {
		t.Fatalf("results = %d", len(r.results))
	}
}

func TestDuplicatePacketIgnored(t *testing.T) {
	r := newRig(t, fourWorkerJob())
	r.send(0, 3, 1, seqGrads(64, 1))
	r.send(0, 3, 1, seqGrads(64, 1)) // retransmission
	for w := 1; w < 4; w++ {
		r.send(w, 3, 1, seqGrads(64, 1))
	}
	r.eng.Run()
	if r.agg.Stats().Duplicates != 1 {
		t.Fatalf("duplicates = %d", r.agg.Stats().Duplicates)
	}
	if got := r.results[0].grads[0]; got != 4 {
		t.Fatalf("gradient = %d, want 4 (duplicate must not double-count)", got)
	}
}

func TestUnknownJobDropped(t *testing.T) {
	r := newRig(t, fourWorkerJob())
	frame := packet.BuildTrioML(packet.UDPSpec{SrcPort: 1},
		packet.TrioML{JobID: 99, BlockID: 1, SrcID: 0}, seqGrads(8, 1))
	r.pfe.Inject(0, 1, frame)
	r.eng.Run()
	if r.agg.Stats().NoJobDrops != 1 {
		t.Fatalf("stats = %+v", r.agg.Stats())
	}
}

func TestUnknownSourceDropped(t *testing.T) {
	r := newRig(t, fourWorkerJob())
	r.send(7, 1, 1, seqGrads(8, 1)) // src 7 not in job
	r.eng.Run()
	if r.agg.Stats().NonAggPkts != 1 {
		t.Fatalf("stats = %+v", r.agg.Stats())
	}
}

func TestOversizedBlockDropped(t *testing.T) {
	cfg := fourWorkerJob()
	cfg.BlockGradMax = 64
	r := newRig(t, cfg)
	r.send(0, 1, 1, seqGrads(128, 1))
	r.eng.Run()
	if r.agg.Stats().NonAggPkts != 1 {
		t.Fatalf("stats = %+v", r.agg.Stats())
	}
}

// TestForeignSourceRefusedOnOpenBlock: a source outside the job is refused
// on every path, not only when it would open a block. Here it contributes to
// an open block; counting it would complete the block as a full result
// without the job's last source.
func TestForeignSourceRefusedOnOpenBlock(t *testing.T) {
	r := newRig(t, fourWorkerJob())
	r.send(0, 1, 1, seqGrads(16, 1))
	r.send(7, 1, 1, seqGrads(16, 100)) // src 7 is not in the job
	r.send(1, 1, 1, seqGrads(16, 1))
	r.send(2, 1, 1, seqGrads(16, 1))
	r.eng.Run()
	if st := r.agg.Stats(); len(r.results) != 0 || st.NonAggPkts != 1 {
		t.Fatalf("%d results, stats %+v: want src 7 refused and the block waiting for src 3", len(r.results), st)
	}
	r.send(3, 1, 1, seqGrads(16, 1))
	r.eng.Run()
	if len(r.results) != 4 || r.results[0].hdr.SrcCnt != 4 || r.results[0].grads[0] != 4 {
		t.Fatalf("results = %+v, want the four-source sum 4", r.results)
	}
}

// TestOversizedRestartRefused: a newer generation's contribution passes the
// same size check as a block's first one. A 128-gradient restart of a block
// whose buffer holds 64 would write past it into the next block's buffer.
func TestOversizedRestartRefused(t *testing.T) {
	cfg := fourWorkerJob()
	cfg.BlockGradMax = 64
	r := newRig(t, cfg)
	r.send(0, 2, 1, seqGrads(64, 1))
	r.send(0, 1, 1, seqGrads(64, 1))
	r.send(0, 1, 2, seqGrads(128, 1000)) // gen 2 of block 1, twice the buffer
	for w := 1; w < 4; w++ {
		r.send(w, 2, 1, seqGrads(64, 1))
	}
	r.eng.Run()
	if st := r.agg.Stats(); st.NonAggPkts != 1 || len(r.results) != 4 {
		t.Fatalf("%d results, stats %+v: want the restart refused and block 2 served", len(r.results), st)
	}
	res := r.results[0]
	if res.hdr.BlockID != 2 || res.hdr.Degraded {
		t.Fatalf("result = %+v, want block 2, full", res.hdr)
	}
	for i, g := range res.grads {
		if g != 4*int32(i+1) {
			t.Fatalf("block 2 gradient %d = %d, want %d (overwritten by block 1's restart)", i, g, 4*(i+1))
		}
	}
}

// TestStaleRetransmitsDoNotKeepRecordAlive: a contribution that is not added
// is no reference. A source retransmitting its old-generation contribution
// while a newer generation waits must not keep that record from aging.
func TestStaleRetransmitsDoNotKeepRecordAlive(t *testing.T) {
	cfg := fourWorkerJob()
	cfg.BlockExpiry = 5 * sim.Millisecond
	r := newRig(t, cfg)
	if err := r.agg.EnableResultReplay(1, 0); err != nil {
		t.Fatal(err)
	}
	r.agg.StartStragglerDetection(100, 5*sim.Millisecond)
	for w := 0; w < 4; w++ {
		r.send(w, 0, 1, seqGrads(16, 1))
	}
	r.eng.RunUntil(sim.Millisecond)
	r.send(0, 0, 2, seqGrads(16, 1)) // gen 2 opens; the others never come
	resends := 0
	for at := 2 * sim.Millisecond; at <= 44*sim.Millisecond; at += 2 * sim.Millisecond {
		resends++
		r.eng.At(at, func() { r.send(3, 0, 1, seqGrads(16, 1)) })
	}
	r.eng.RunUntil(45 * sim.Millisecond)
	st := r.agg.Stats()
	if st.BlocksDegraded != 1 || st.StaleDrops != uint64(resends) {
		t.Fatalf("stats = %+v, want gen 2 aged out and all %d resends stale", st, resends)
	}
	last := r.results[len(r.results)-1]
	if last.hdr.GenID != 2 || !last.hdr.Degraded || last.hdr.SrcCnt != 1 || last.at > 12*sim.Millisecond {
		t.Fatalf("last result %+v at %v, want gen 2 degraded with one source by 12 ms", last.hdr, last.at)
	}
}

func TestGenerationReuseRestartsBlock(t *testing.T) {
	// Iteration 1 completes on block 0; iteration 2 reuses block 0. Sums
	// must not leak across generations.
	r := newRig(t, fourWorkerJob())
	for w := 0; w < 4; w++ {
		r.send(w, 0, 1, seqGrads(64, 1))
	}
	r.eng.Run()
	for w := 0; w < 4; w++ {
		r.send(w, 0, 2, seqGrads(64, 10))
	}
	r.eng.Run()
	if len(r.results) != 8 {
		t.Fatalf("results = %d", len(r.results))
	}
	if r.results[0].grads[0] != 4 || r.results[4].grads[0] != 40 {
		t.Fatalf("sums = %d, %d", r.results[0].grads[0], r.results[4].grads[0])
	}
}

// TestGenerationWrapOnPFE: generation ids wrap at 16 bits. A block open at
// 0xFFFF is superseded by a gen-0 contribution (a restart), a late 0xFFFF
// contribution after that is stale, and the result is gen 0's alone.
func TestGenerationWrapOnPFE(t *testing.T) {
	r := newRig(t, fourWorkerJob())
	for w := 0; w < 3; w++ {
		r.send(w, 0, 0xFFFF, seqGrads(64, 1))
	}
	r.eng.Run()
	r.send(0, 0, 0, seqGrads(64, 100)) // restart
	r.eng.Run()
	r.send(3, 0, 0xFFFF, seqGrads(64, 1)) // late: stale
	r.eng.Run()
	if st := r.agg.Stats(); st.StaleDrops != 1 || len(r.results) != 0 {
		t.Fatalf("stale drops = %d, results = %d: want the late 0xFFFF contribution dropped", st.StaleDrops, len(r.results))
	}
	for w := 1; w < 4; w++ {
		r.send(w, 0, 0, seqGrads(64, 100))
	}
	r.eng.Run()
	if len(r.results) != 4 || r.results[0].hdr.GenID != 0 || r.results[0].grads[0] != 400 {
		t.Fatalf("results = %d, want 4 of gen 0 summing to 400 in lane 0", len(r.results))
	}
}

func TestIncompleteOldGenerationSuperseded(t *testing.T) {
	// Three workers contribute gen 1 of block 0; before the fourth arrives,
	// gen 2 packets start landing on the same block id (e.g. after a
	// degraded recovery at the servers). Gen 2 must restart cleanly, and the
	// late gen-1 packet must be recognized as stale.
	r := newRig(t, fourWorkerJob())
	for w := 0; w < 3; w++ {
		r.send(w, 0, 1, seqGrads(64, 1))
	}
	r.eng.Run()
	for w := 0; w < 4; w++ {
		r.send(w, 0, 2, seqGrads(64, 100))
	}
	r.eng.Run()
	if len(r.results) != 4 {
		t.Fatalf("results = %d", len(r.results))
	}
	if r.results[0].grads[0] != 400 {
		t.Fatalf("gen-2 sum = %d, want 400", r.results[0].grads[0])
	}
	// A gen-1 packet arriving while the gen-2 record is still open is stale.
	r.send(3, 1, 1, seqGrads(64, 1)) // opens block 1, gen 1
	r.eng.Run()
	r.send(0, 1, 2, seqGrads(64, 100)) // block 1 moves to gen 2
	r.eng.Run()
	r.send(3, 1, 1, seqGrads(64, 1)) // late gen-1 contribution: stale
	r.eng.Run()
	if r.agg.Stats().StaleDrops != 1 {
		t.Fatalf("stale drops = %d", r.agg.Stats().StaleDrops)
	}
	// After a completed block's record is deleted, a very late gen-1 packet
	// recreates the block rather than being dropped; it will age out via the
	// timer path. This must not corrupt state.
	r.send(3, 0, 1, seqGrads(64, 1))
	r.eng.Run()
	if r.pfe.Hash.Len() != 3 { // job record + block 0 (gen 1) + block 1 (gen 2)
		t.Fatalf("hash len = %d", r.pfe.Hash.Len())
	}
}

func TestWindowStreamingManyBlocks(t *testing.T) {
	// 4 workers stream 64 blocks concurrently (window = 64): all blocks
	// aggregate correctly regardless of interleaving.
	r := newRig(t, fourWorkerJob())
	for b := uint32(0); b < 64; b++ {
		for w := 0; w < 4; w++ {
			r.send(w, b, 1, seqGrads(128, int32(b+1)))
		}
	}
	r.eng.Run()
	if len(r.results) != 64*4 {
		t.Fatalf("results = %d", len(r.results))
	}
	seen := map[uint32]bool{}
	for _, res := range r.results {
		if res.port != 0 {
			continue
		}
		if seen[res.hdr.BlockID] {
			t.Fatalf("block %d completed twice", res.hdr.BlockID)
		}
		seen[res.hdr.BlockID] = true
		want := 4 * int32(res.hdr.BlockID+1)
		if res.grads[0] != want {
			t.Fatalf("block %d sum = %d, want %d", res.hdr.BlockID, res.grads[0], want)
		}
	}
	st := r.agg.Stats()
	if st.BlocksCompleted != 64 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBlockPoolExhaustionDrops(t *testing.T) {
	cfg := fourWorkerJob()
	cfg.BlockCntMax = 2
	r := newRig(t, cfg)
	for b := uint32(0); b < 3; b++ {
		r.send(0, b, 1, seqGrads(8, 1)) // only worker 0: blocks stay open
	}
	r.eng.Run()
	if r.agg.Stats().NoBufferDrops != 1 {
		t.Fatalf("stats = %+v", r.agg.Stats())
	}
}

func TestStragglerTimeoutEmitsDegradedResult(t *testing.T) {
	cfg := fourWorkerJob()
	cfg.BlockExpiry = 10 * sim.Millisecond
	r := newRig(t, cfg)
	r.agg.StartStragglerDetection(100, 10*sim.Millisecond)
	// Workers 0..2 contribute; worker 3 straggles forever.
	for w := 0; w < 3; w++ {
		r.send(w, 0, 1, seqGrads(64, 1))
	}
	r.eng.RunUntil(25 * sim.Millisecond)
	if len(r.results) != 4 {
		t.Fatalf("results = %d", len(r.results))
	}
	res := r.results[0]
	if !res.hdr.Degraded || res.hdr.AgeOp == 0 {
		t.Fatalf("hdr = %+v, want degraded", res.hdr)
	}
	if res.hdr.SrcCnt != 3 {
		t.Fatalf("src_cnt = %d, want 3 (partial set)", res.hdr.SrcCnt)
	}
	if res.grads[0] != 3 {
		t.Fatalf("partial sum = %d, want 3", res.grads[0])
	}
	// Recovery within 2× the timeout (Fig. 14's bound).
	if res.at > 20*sim.Millisecond {
		t.Fatalf("degraded result at %v, want <= 20 ms", res.at)
	}
	if r.agg.Stats().BlocksDegraded != 1 {
		t.Fatalf("stats = %+v", r.agg.Stats())
	}
}

func TestActiveBlocksDoNotAgeOut(t *testing.T) {
	cfg := fourWorkerJob()
	r := newRig(t, cfg)
	r.agg.StartStragglerDetection(10, 5*sim.Millisecond)
	// A different block completes every 2 ms; REF flags stay fresh because
	// each new block's packets re-reference the job record, and block
	// records complete before aging.
	for b := uint32(0); b < 10; b++ {
		b := b
		r.eng.At(sim.Time(b)*2*sim.Millisecond, func() {
			for w := 0; w < 4; w++ {
				r.send(w, b, 1, seqGrads(16, 1))
			}
		})
	}
	r.eng.RunUntil(50 * sim.Millisecond)
	st := r.agg.Stats()
	if st.BlocksDegraded != 0 {
		t.Fatalf("active traffic degraded: %+v", st)
	}
	if st.BlocksCompleted != 10 {
		t.Fatalf("completed = %d", st.BlocksCompleted)
	}
}

func TestLateStragglerAfterDegradedResultIsStale(t *testing.T) {
	cfg := fourWorkerJob()
	r := newRig(t, cfg)
	r.agg.StartStragglerDetection(100, 5*sim.Millisecond)
	for w := 0; w < 3; w++ {
		r.send(w, 0, 1, seqGrads(64, 1))
	}
	r.eng.RunUntil(15 * sim.Millisecond)
	if r.agg.Stats().BlocksDegraded != 1 {
		t.Fatalf("stats = %+v", r.agg.Stats())
	}
	// The straggler's packet finally arrives: the record is gone, so it
	// recreates a block that then ages out again harmlessly — or, if the
	// servers moved to gen 2, it is stale. Here the record was deleted, so
	// the packet creates a fresh block; it must not crash or corrupt state.
	r.send(3, 0, 1, seqGrads(64, 1))
	r.eng.RunUntil(30 * sim.Millisecond)
	if r.agg.Stats().BlocksDegraded != 2 {
		t.Fatalf("late straggler block did not age out: %+v", r.agg.Stats())
	}
	// Its lone degraded result reports src_cnt = 1.
	last := r.results[len(r.results)-1]
	if last.hdr.SrcCnt != 1 || !last.hdr.Degraded {
		t.Fatalf("late block result = %+v", last.hdr)
	}
}

func TestTimerThreadsScanCostSplitAcrossN(t *testing.T) {
	cfg := fourWorkerJob()
	r := newRig(t, cfg)
	// Open many straggling blocks.
	for b := uint32(0); b < 500; b++ {
		r.send(0, b, 1, seqGrads(8, 1))
	}
	r.eng.Run()
	r.agg.StartStragglerDetection(100, 10*sim.Millisecond)
	r.eng.RunUntil(25 * sim.Millisecond)
	st := r.agg.Stats()
	if st.BlocksDegraded != 500 {
		t.Fatalf("degraded = %d, want 500", st.BlocksDegraded)
	}
	if st.TimerScans < 100 {
		t.Fatalf("timer scans = %d", st.TimerScans)
	}
}

func TestInstallJobValidation(t *testing.T) {
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	a := New(p)
	base := fourWorkerJob()

	dup := base
	if err := a.InstallJob(dup); err != nil {
		t.Fatal(err)
	}
	if err := a.InstallJob(dup); err == nil {
		t.Fatal("duplicate job accepted")
	}

	bad := base
	bad.JobID = 2
	bad.Sources = []uint8{1, 1}
	if err := a.InstallJob(bad); err == nil {
		t.Fatal("duplicate sources accepted")
	}

	bad = base
	bad.JobID = 3
	bad.Sources = []uint8{ResultSrcID}
	if err := a.InstallJob(bad); err == nil {
		t.Fatal("reserved source id accepted")
	}

	bad = base
	bad.JobID = 4
	bad.BlockGradMax = 5000
	if err := a.InstallJob(bad); err == nil {
		t.Fatal("grad max beyond 12-bit field accepted")
	}

	bad = base
	bad.JobID = 5
	bad.BlockExpiry = 500 * sim.Microsecond
	if err := a.InstallJob(bad); err == nil {
		t.Fatal("sub-millisecond expiry accepted")
	}
}

func TestRecordRoundTrips(t *testing.T) {
	j := JobRecord{
		BlockCurrCnt: 3, BlockCntMax: 4095, BlockGradMax: 1024, BlockExpMs: 10,
		BlockTotalCnt: 123456, OutSrcAddr: 0x0A000001, OutDstAddr: 0xE0000101,
		OutNhAddr: 0xDEAD, SrcCnt: 6,
		SrcMask: [4]uint64{0x3F, 0, 1 << 63, 42},
	}
	b := make([]byte, recordTxnBytes)
	j.encode(b)
	if got := decodeJob(b); got != j {
		t.Fatalf("job round trip: %+v != %+v", got, j)
	}

	r := BlockRecord{
		BlockExpMs: 10, BlockAge: 2, BlockStartTime: 123456789,
		JobCtxPAddr: 0x100, AggrPAddr: 0x400000, AggAgeOp: 0xA, GradCnt: 0xFFF, GenID: 777,
		RcvdCnt: 5, RcvdMask: [4]uint64{0x1F, 9, 8, 7},
	}
	r.encode(b)
	if got := decodeBlock(b); got != r {
		t.Fatalf("block round trip: %+v != %+v", got, r)
	}
}

func TestKeySplitRoundTrip(t *testing.T) {
	for _, c := range []struct {
		job   uint8
		block uint32
	}{{0, 0}, {1, 5}, {255, JobBlockID - 1}, {7, 1 << 30}} {
		j, b := SplitKey(Key(c.job, c.block))
		if j != c.job || b != c.block {
			t.Fatalf("key round trip (%d,%d) -> (%d,%d)", c.job, c.block, j, b)
		}
	}
}

func TestAggregationLatencyHookFires(t *testing.T) {
	r := newRig(t, fourWorkerJob())
	var latencies []sim.Time
	r.agg.OnAggregated = func(arrival, done sim.Time, grads int) {
		latencies = append(latencies, done-arrival)
	}
	for w := 0; w < 4; w++ {
		r.send(w, 0, 1, seqGrads(1024, 1))
	}
	r.eng.Run()
	if len(latencies) != 4 {
		t.Fatalf("hook fired %d times", len(latencies))
	}
	for _, l := range latencies {
		if l <= 0 {
			t.Fatal("non-positive latency")
		}
	}
	// The 1024-gradient packet walks 62 tail chunks: latency must be in the
	// tens of microseconds at the recommended operating point.
	if latencies[0] < 10*sim.Microsecond {
		t.Fatalf("latency %v implausibly small", latencies[0])
	}
}

func TestMultipleConcurrentJobs(t *testing.T) {
	// Fig. 9: multiple aggregation jobs present concurrently, each with
	// multiple blocks in parallel, sharing one PFE's hash table and memory.
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	a := New(p)
	var results []result
	p.SetOutput(func(port int, frame []byte, at sim.Time) {
		f, err := packet.Decode(frame)
		if err != nil || !f.IsTrioML() {
			t.Errorf("bad frame: %v", err)
			return
		}
		grads, _ := packet.Gradients(f.Payload, int(f.ML.GradCnt))
		results = append(results, result{port: port, hdr: *f.ML, grads: grads, at: at})
	})
	// Job 1: workers 0,1 on ports 0,1. Job 2: workers 0,1,2 on ports 2,3,4.
	if err := a.InstallJob(JobConfig{
		JobID: 1, Sources: []uint8{0, 1}, ResultPorts: []int{0, 1}, UpstreamPort: -1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.InstallJob(JobConfig{
		JobID: 2, Sources: []uint8{0, 1, 2}, ResultPorts: []int{2, 3, 4}, UpstreamPort: -1,
	}); err != nil {
		t.Fatal(err)
	}
	send := func(job uint8, worker int, block uint32, scale int32) {
		frame := packet.BuildTrioML(packet.UDPSpec{
			SrcIP: [4]byte{10, byte(job), 0, byte(worker + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 6000,
		}, packet.TrioML{JobID: job, BlockID: block, SrcID: uint8(worker), GenID: 1}, seqGrads(32, scale))
		p.Inject(worker%p.Cfg.NumPorts, uint64(job)<<32|uint64(worker), frame)
	}
	// Interleave the jobs' blocks.
	for b := uint32(0); b < 10; b++ {
		send(1, 0, b, 1)
		send(2, 0, b, 10)
		send(2, 1, b, 20)
		send(1, 1, b, 2)
		send(2, 2, b, 30)
	}
	eng.Run()
	perJob := map[uint8]int{}
	for _, r := range results {
		perJob[r.hdr.JobID]++
		switch r.hdr.JobID {
		case 1:
			if r.grads[0] != 3 { // (1+2)*1
				t.Fatalf("job 1 block %d sum = %d", r.hdr.BlockID, r.grads[0])
			}
			if r.hdr.SrcCnt != 2 {
				t.Fatalf("job 1 src_cnt = %d", r.hdr.SrcCnt)
			}
		case 2:
			if r.grads[0] != 60 { // (10+20+30)*1
				t.Fatalf("job 2 block %d sum = %d", r.hdr.BlockID, r.grads[0])
			}
			if r.hdr.SrcCnt != 3 {
				t.Fatalf("job 2 src_cnt = %d", r.hdr.SrcCnt)
			}
		}
	}
	if perJob[1] != 10*2 || perJob[2] != 10*3 {
		t.Fatalf("results per job = %v", perJob)
	}
	st := a.Stats()
	if st.BlocksCompleted != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJobsShareTimerThreads(t *testing.T) {
	// One set of timer threads ages blocks of every installed job.
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.Config{})
	a := New(p)
	for job := uint8(1); job <= 2; job++ {
		if err := a.InstallJob(JobConfig{
			JobID: job, Sources: []uint8{0, 1}, ResultPorts: []int{0, 1},
			UpstreamPort: -1, BlockExpiry: 5 * sim.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	a.StartStragglerDetection(20, 5*sim.Millisecond)
	for job := uint8(1); job <= 2; job++ {
		frame := packet.BuildTrioML(packet.UDPSpec{SrcPort: 6000},
			packet.TrioML{JobID: job, BlockID: 0, SrcID: 0, GenID: 1}, seqGrads(8, 1))
		p.Inject(0, uint64(job), frame) // only worker 0 contributes
	}
	eng.RunUntil(20 * sim.Millisecond)
	if a.Stats().BlocksDegraded != 2 {
		t.Fatalf("stats = %+v, want both jobs' blocks aged", a.Stats())
	}
}

func TestStarJobIsTheSingleLevelTestbed(t *testing.T) {
	jc := StarJob(3, 4, 256, 5*sim.Millisecond)
	if jc.JobID != 3 || jc.UpstreamPort != -1 || jc.BlockGradMax != 256 || jc.BlockExpiry != 5*sim.Millisecond {
		t.Fatalf("job = %+v", jc)
	}
	for i := 0; i < 4; i++ {
		if jc.Sources[i] != uint8(i) || jc.ResultPorts[i] != i {
			t.Fatalf("server %d: source %d on port %d, want %d on %d", i, jc.Sources[i], jc.ResultPorts[i], i, i)
		}
	}
	if len(jc.Sources) != 4 || len(jc.ResultPorts) != 4 {
		t.Fatalf("sources %v, ports %v", jc.Sources, jc.ResultPorts)
	}
	// Installed, it completes a block once all four servers contribute.
	r := newRig(t, StarJob(1, 4, 0, 0))
	for w := 0; w < 4; w++ {
		r.send(w, 9, 1, seqGrads(8, 1))
	}
	r.eng.Run()
	if len(r.results) != 4 || r.results[0].grads[7] != 4*8 {
		t.Fatalf("results = %+v, want the 4-source sum on each port", r.results)
	}
}

func TestResultReplayResendsServedBytes(t *testing.T) {
	r := newRig(t, StarJob(1, 2, 0, 0))
	if err := r.agg.EnableResultReplay(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.agg.EnableResultReplay(9, 0); err == nil {
		t.Fatal("replay enabled on a job that is not installed")
	}
	var raw [][]byte
	r.pfe.SetOutput(func(_ int, frame []byte, _ sim.Time) { raw = append(raw, append([]byte(nil), frame...)) })
	r.send(0, 7, 1, seqGrads(8, 1))
	r.send(1, 7, 1, seqGrads(8, 2))
	r.eng.Run()
	if len(raw) != 2 {
		t.Fatalf("served %d frames, want the result on both ports", len(raw))
	}
	served := raw[0]
	raw = nil
	r.send(1, 7, 1, seqGrads(8, 2)) // its Result was lost: the source retransmits
	r.eng.Run()
	if len(raw) != 2 || !bytes.Equal(raw[0], served) || !bytes.Equal(raw[1], served) {
		t.Fatalf("replayed %d frames, want the served bytes on both ports", len(raw))
	}
	if st := r.agg.Stats(); st.ResultReplays != 1 || st.BlocksCompleted != 1 {
		t.Fatalf("stats = %+v, want one replay and no second completion", st)
	}
	// A retransmit from an older generation is stale: nothing is sent.
	raw = nil
	r.send(1, 7, 0, seqGrads(8, 2))
	r.eng.Run()
	if len(raw) != 0 || r.agg.Stats().StaleDrops != 1 {
		t.Fatalf("older generation: %d frames, stats %+v", len(raw), r.agg.Stats())
	}
}
