package trioml

import (
	"testing"

	"github.com/trioml/triogo/internal/sim"
)

// deadWorkerRig sets up four workers of which worker 3 is permanently dead,
// with fast straggler detection and slow advanced analysis running.
func deadWorkerRig(t *testing.T, threshold uint64) (*rig, func()) {
	t.Helper()
	cfg := fourWorkerJob()
	cfg.BlockExpiry = 2 * sim.Millisecond
	r := newRig(t, cfg)
	stopFast := r.agg.StartStragglerDetection(20, 2*sim.Millisecond)
	stopSlow := r.agg.StartAdvancedMitigation(AdvancedConfig{EventThreshold: threshold})
	return r, func() { stopFast.Stop(); stopSlow.Stop() }
}

// pastAnalysis is just after the analysis thread's second run, the first
// that can see straggler events (the first runs at t = 0).
const pastAnalysis = analyzePeriod + 10*sim.Millisecond

// sendAlive has workers 0..2 contribute block b (worker 3 stays dark).
func sendAlive(r *rig, b uint32) {
	for w := 0; w < 3; w++ {
		r.send(w, b, 1, seqGrads(32, 1))
	}
}

func TestPermanentStragglerDemoted(t *testing.T) {
	r, stop := deadWorkerRig(t, 5)
	defer stop()
	var demotions []uint8
	r.agg.OnDemotion = func(job, src uint8, at sim.Time) {
		demotions = append(demotions, src)
	}
	// Ten blocks, 3 ms apart: each ages out against the dead worker,
	// accumulating straggler events until the analyzer demotes it.
	for b := uint32(0); b < 10; b++ {
		b := b
		r.eng.At(sim.Time(b)*3*sim.Millisecond, func() { sendAlive(r, b) })
	}
	r.eng.RunUntil(pastAnalysis)
	if len(demotions) != 1 || demotions[0] != 3 {
		t.Fatalf("demotions = %v, want worker 3", demotions)
	}
	if !r.agg.Demoted(1, 3) {
		t.Fatal("Demoted() disagrees")
	}
	if r.agg.Stats().SourcesDemoted != 1 {
		t.Fatalf("stats = %+v", r.agg.Stats())
	}
}

func TestBlocksCompleteWithoutDemotedSource(t *testing.T) {
	r, stop := deadWorkerRig(t, 5)
	defer stop()
	for b := uint32(0); b < 10; b++ {
		b := b
		r.eng.At(sim.Time(b)*3*sim.Millisecond, func() { sendAlive(r, b) })
	}
	r.eng.RunUntil(pastAnalysis)
	if !r.agg.Demoted(1, 3) {
		t.Fatal("precondition: not demoted")
	}
	degradedBefore := r.agg.Stats().BlocksDegraded
	// Post-demotion blocks complete promptly, with src_cnt 3 and no
	// timeout penalty.
	start := r.eng.Now()
	sendAlive(r, 100)
	r.eng.RunUntil(start + 1*sim.Millisecond)
	last := r.results[len(r.results)-1]
	if last.hdr.BlockID != 100 {
		t.Fatalf("block 100 not completed within 1 ms of the last packet (last result: %+v)", last.hdr)
	}
	if last.hdr.SrcCnt != 3 || last.hdr.Degraded {
		t.Fatalf("post-demotion result = %+v, want full 3-source completion", last.hdr)
	}
	if r.agg.Stats().BlocksDegraded != degradedBefore {
		t.Fatal("post-demotion block still aged out")
	}
}

func TestDemotionNotificationReachesWorkers(t *testing.T) {
	r, stop := deadWorkerRig(t, 3)
	defer stop()
	for b := uint32(0); b < 8; b++ {
		b := b
		r.eng.At(sim.Time(b)*3*sim.Millisecond, func() { sendAlive(r, b) })
	}
	r.eng.RunUntil(pastAnalysis)
	notifications := 0
	for _, res := range r.results {
		if res.hdr.AgeOp == NotifyDemoted {
			notifications++
			if res.hdr.SrcCnt != 3 {
				t.Fatalf("notification names source %d, want 3", res.hdr.SrcCnt)
			}
		}
	}
	// Multicast to the four result ports.
	if notifications != 4 {
		t.Fatalf("notifications = %d, want 4 (one per port)", notifications)
	}
}

func TestTemporaryStragglerNotDemoted(t *testing.T) {
	// Worker 3 misses only two blocks (below the threshold of 5) and then
	// participates again: no demotion.
	r, stop := deadWorkerRig(t, 5)
	defer stop()
	for b := uint32(0); b < 2; b++ {
		b := b
		r.eng.At(sim.Time(b)*3*sim.Millisecond, func() { sendAlive(r, b) })
	}
	for b := uint32(2); b < 10; b++ {
		b := b
		r.eng.At(sim.Time(b)*3*sim.Millisecond, func() {
			sendAlive(r, b)
			r.send(3, b, 1, seqGrads(32, 1))
		})
	}
	r.eng.RunUntil(pastAnalysis)
	if r.agg.Demoted(1, 3) {
		t.Fatal("temporary straggler was demoted")
	}
	if r.agg.Stats().BlocksDegraded != 2 {
		t.Fatalf("stats = %+v", r.agg.Stats())
	}
}

// TestDemotedSourceRefused: once demoted, a source is out of the job. Its
// contribution to an open block is refused rather than counted toward the
// three sources the block now waits for.
func TestDemotedSourceRefused(t *testing.T) {
	r, stop := deadWorkerRig(t, 5)
	defer stop()
	for b := uint32(0); b < 10; b++ {
		b := b
		r.eng.At(sim.Time(b)*3*sim.Millisecond, func() { sendAlive(r, b) })
	}
	r.eng.RunUntil(pastAnalysis)
	if !r.agg.Demoted(1, 3) {
		t.Fatal("precondition: not demoted")
	}
	refused := r.agg.Stats().NonAggPkts
	nres := len(r.results)
	start := r.eng.Now()
	r.send(0, 100, 1, seqGrads(32, 1))
	r.eng.RunUntil(start + 5*sim.Microsecond)
	r.send(3, 100, 1, seqGrads(32, 100)) // the demoted source comes back
	r.eng.RunUntil(start + 10*sim.Microsecond)
	r.send(1, 100, 1, seqGrads(32, 1))
	r.send(2, 100, 1, seqGrads(32, 1))
	r.eng.RunUntil(start + sim.Millisecond)
	if len(r.results) == nres {
		t.Fatal("block 100 not served")
	}
	res := r.results[nres]
	if res.hdr.BlockID != 100 || res.hdr.SrcCnt != 3 || res.hdr.Degraded || res.grads[0] != 3 {
		t.Fatalf("result %+v sum %d, want block 100 from sources 0..2, sum 3", res.hdr, res.grads[0])
	}
	if got := r.agg.Stats().NonAggPkts - refused; got != 1 {
		t.Fatalf("%d contributions refused, want the demoted source's one", got)
	}
}
