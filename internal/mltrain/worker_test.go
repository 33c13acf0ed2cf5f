package mltrain

import (
	"fmt"
	"slices"
	"testing"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
)

// workerHarness drives a Worker directly, playing the role of the
// aggregation device: it records sent frames and lets tests inject results.
type workerHarness struct {
	eng    *sim.Engine
	w      *Worker
	sent   []packet.TrioML
	sentAt []sim.Time // engine instant of each sent frame
	frames [][]byte
	done   []int // iterations reported complete
}

func newWorkerHarness(t *testing.T, params WorkerParams, p float64) *workerHarness {
	t.Helper()
	h := &workerHarness{eng: sim.NewEngine()}
	var injector *Injector
	if p > 0 {
		injector = NewInjectorPattern(p, 2, 100*sim.Millisecond, 5, SingleVictim)
	}
	h.w = NewWorker(h.eng, 0, 0, 2, params, injector,
		func(frame []byte) {
			f, err := packet.Decode(frame)
			if err != nil || !f.IsTrioML() {
				t.Fatalf("worker sent bad frame: %v", err)
			}
			h.sent = append(h.sent, *f.ML)
			h.sentAt = append(h.sentAt, h.eng.Now())
			h.frames = append(h.frames, frame)
		},
		func(_ *Worker, iter int, _ sim.Time, _ float64) { h.done = append(h.done, iter) })
	return h
}

// resultFrame builds an aggregation result for (iter, block).
func resultFrame(iter, block int, srcCnt uint8, blocks int) []byte {
	hdr := packet.TrioML{
		JobID: 1, BlockID: uint32(iter*blocks + block), SrcID: 0xFF,
		GenID: uint16(iter + 1), SrcCnt: srcCnt, GradCnt: 4,
	}
	return packet.BuildTrioML(packet.UDPSpec{SrcPort: 1}, hdr, make([]int32, 4))
}

// result injects an aggregation result for (iter, block).
func (h *workerHarness) result(iter, block int, srcCnt uint8, blocks int) {
	h.w.OnFrame(resultFrame(iter, block, srcCnt, blocks), h.eng.Now())
}

// sends lists every frame sent since index from as "ms:block", in order.
func (h *workerHarness) sends(from int) []string {
	var out []string
	for i := from; i < len(h.sent); i++ {
		out = append(out, fmt.Sprintf("%d:%d", h.sentAt[i]/sim.Millisecond, h.sent[i].BlockID))
	}
	return out
}

func baseParams() WorkerParams {
	return WorkerParams{
		JobID: 1, Blocks: 4, GradsPerPacket: 4, Window: 2,
		ComputeTime: 10 * sim.Millisecond,
	}
}

func TestWorkerWindowLimitsOutstanding(t *testing.T) {
	h := newWorkerHarness(t, baseParams(), 0)
	h.w.Start(1)
	h.eng.Run()
	// Compute done at 10 ms, then only Window=2 blocks outstanding.
	if len(h.sent) != 2 {
		t.Fatalf("sent = %d, want window of 2", len(h.sent))
	}
	h.result(0, 0, 2, 4)
	if len(h.sent) != 3 {
		t.Fatalf("sent = %d after first result", len(h.sent))
	}
	h.result(0, 1, 2, 4)
	h.result(0, 2, 2, 4)
	h.result(0, 3, 2, 4)
	if len(h.done) != 1 || h.done[0] != 0 {
		t.Fatalf("done = %v", h.done)
	}
}

func TestWorkerBlockIDsEncodeIteration(t *testing.T) {
	h := newWorkerHarness(t, baseParams(), 0)
	h.w.Start(2)
	h.eng.Run()
	for b := 0; b < 4; b++ {
		h.result(0, b, 2, 4)
	}
	h.eng.Run() // compute for iteration 1
	if len(h.sent) < 5 {
		t.Fatalf("sent = %d", len(h.sent))
	}
	first := h.sent[0]
	if first.BlockID != 0 || first.GenID != 1 || !h.sent[3].Final == (h.sent[3].BlockID%4 == 3) {
		t.Fatalf("hdr = %+v", first)
	}
	iter1 := h.sent[4]
	if iter1.BlockID != 4 || iter1.GenID != 2 {
		t.Fatalf("iteration 1 first block = %+v", iter1)
	}
}

func TestWorkerSkipsBlocksAlreadyAnswered(t *testing.T) {
	// Results for blocks 2 and 3 arrive while the worker is still
	// computing; it must not send them.
	h := newWorkerHarness(t, baseParams(), 0)
	h.w.Start(1)
	h.eng.RunUntil(5 * sim.Millisecond) // mid-compute
	h.result(0, 2, 1, 4)
	h.result(0, 3, 1, 4)
	h.eng.Run() // comm starts: window holds blocks 0 and 1
	h.result(0, 0, 2, 4)
	h.result(0, 1, 2, 4) // pump now reaches blocks 2 and 3 — both answered
	for _, s := range h.sent {
		if s.BlockID == 2 || s.BlockID == 3 {
			t.Fatalf("worker sent already-answered block %d", s.BlockID)
		}
	}
	if h.w.BlocksSkipped != 2 {
		t.Fatalf("skipped = %d", h.w.BlocksSkipped)
	}
	if len(h.done) != 1 {
		t.Fatalf("done = %v", h.done)
	}
}

func TestWorkerFastForwardsPastCompletedIterations(t *testing.T) {
	// While the worker computes iteration 0, the cluster finishes
	// iterations 0 AND 1 (degraded). On waking it must skip both and start
	// iteration 2.
	h := newWorkerHarness(t, baseParams(), 0)
	h.w.Start(3)
	h.eng.RunUntil(5 * sim.Millisecond)
	for b := 0; b < 4; b++ {
		h.result(0, b, 1, 4)
		h.result(1, b, 1, 4)
	}
	h.eng.Run() // wake at 10 ms, fast-forward, compute iter 2, send
	if len(h.done) != 2 {
		t.Fatalf("done = %v", h.done)
	}
	// Everything sent belongs to iteration 2 (gen 3).
	for _, s := range h.sent {
		if s.GenID != 3 {
			t.Fatalf("sent gen %d after fast-forward", s.GenID)
		}
	}
	if h.w.BlocksSkipped != 8 {
		t.Fatalf("skipped = %d, want both iterations' blocks", h.w.BlocksSkipped)
	}
}

func TestWorkerIgnoresStaleAndAlienResults(t *testing.T) {
	h := newWorkerHarness(t, baseParams(), 0)
	h.w.Start(1)
	h.eng.Run()
	before := h.w.ResultsRecv
	// Wrong job.
	hdr := packet.TrioML{JobID: 9, BlockID: 0, GenID: 1, SrcCnt: 2, GradCnt: 4}
	h.w.OnFrame(packet.BuildTrioML(packet.UDPSpec{SrcPort: 1}, hdr, make([]int32, 4)), 0)
	// Gen 0 (invalid).
	hdr = packet.TrioML{JobID: 1, BlockID: 0, GenID: 0, SrcCnt: 2, GradCnt: 4}
	h.w.OnFrame(packet.BuildTrioML(packet.UDPSpec{SrcPort: 1}, hdr, make([]int32, 4)), 0)
	// Block index out of range for its generation.
	hdr = packet.TrioML{JobID: 1, BlockID: 99, GenID: 1, SrcCnt: 2, GradCnt: 4}
	h.w.OnFrame(packet.BuildTrioML(packet.UDPSpec{SrcPort: 1}, hdr, make([]int32, 4)), 0)
	// Duplicate of a real result counts once.
	h.result(0, 0, 2, 4)
	h.result(0, 0, 2, 4)
	if h.w.ResultsRecv != before+1 {
		t.Fatalf("recv = %d, want exactly one accepted", h.w.ResultsRecv-before)
	}
}

// retxParams resends every 5 ms; compute ends (and comm starts) at 10 ms.
func retxParams() WorkerParams {
	params := baseParams()
	params.RetransmitAfter = 5 * sim.Millisecond
	return params
}

func TestWorkerRetransmitStopsAfterResult(t *testing.T) {
	h := newWorkerHarness(t, retxParams(), 0)
	h.w.Start(1)
	// No results: the window (blocks 0 and 1) goes out at comm start and
	// again at exactly start + k·5 ms, in block order.
	h.eng.RunUntil(26 * sim.Millisecond)
	h.result(0, 0, 2, 4) // frees a slot: block 2 goes out now
	h.eng.RunUntil(31 * sim.Millisecond)
	h.result(0, 1, 2, 4) // block 3 goes out now
	h.result(0, 2, 2, 4)
	h.eng.RunUntil(36 * sim.Millisecond)
	h.result(0, 3, 2, 4) // the last accept ends the resend period
	h.eng.RunUntil(100 * sim.Millisecond)
	want := []string{
		"10:0", "10:1", "15:0", "15:1", "20:0", "20:1", "25:0", "25:1",
		"26:2", "30:1", "30:2", "31:3", "35:3",
	}
	if got := h.sends(0); !slices.Equal(got, want) {
		t.Fatalf("sends (ms:block) = %v, want %v", got, want)
	}
	if h.w.Retransmits != 9 {
		t.Fatalf("retransmits = %d, want 9", h.w.Retransmits)
	}
	if len(h.done) != 1 {
		t.Fatalf("done = %v", h.done)
	}
	// Each block's latency runs from its first send: 16, 21, 5 and 5 ms.
	if l := h.w.Latency; l.N != 4 || l.Sum != 47*sim.Millisecond || l.Max != 21*sim.Millisecond || h.w.LastAccept != 36*sim.Millisecond {
		t.Fatalf("latency %+v, last accept %v", l, h.w.LastAccept)
	}
}

func TestWorkerDropsCorruptedResult(t *testing.T) {
	h := newWorkerHarness(t, retxParams(), 0)
	var hooked []uint32
	h.w.OnResult = func(f *packet.Frame) { hooked = append(hooked, f.ML.BlockID) }
	h.w.Start(1)
	h.eng.RunUntil(11 * sim.Millisecond)
	frame := resultFrame(0, 0, 2, 4)
	frame[len(frame)-1] ^= 0x01 // one payload bit: the UDP checksum fails
	h.w.OnFrame(frame, h.eng.Now())
	if h.w.ResultsRecv != 0 || len(hooked) != 0 {
		t.Fatalf("corrupted result accepted: recv = %d, hooked = %v", h.w.ResultsRecv, hooked)
	}
	h.eng.RunUntil(15 * sim.Millisecond)
	if got, want := h.sends(2), []string{"15:0", "15:1"}; !slices.Equal(got, want) {
		t.Fatalf("resends = %v, want %v (the corrupted result counts as lost)", got, want)
	}
	h.result(0, 0, 2, 4)
	if h.w.ResultsRecv != 1 || !slices.Equal(hooked, []uint32{0}) {
		t.Fatalf("intact result: recv = %d, hooked = %v", h.w.ResultsRecv, hooked)
	}
}

func TestWorkerGradFractionReported(t *testing.T) {
	var fracs []float64
	h := newWorkerHarness(t, baseParams(), 0)
	h.w.onIterRecv = func(_ *Worker, _ int, _ sim.Time, f float64) { fracs = append(fracs, f) }
	h.w.Start(1)
	h.eng.Run()
	// Two degraded results (1 of 2 sources) and two full ones.
	h.result(0, 0, 1, 4)
	h.result(0, 1, 1, 4)
	h.result(0, 2, 2, 4)
	h.result(0, 3, 2, 4)
	if len(fracs) != 1 {
		t.Fatalf("fracs = %v", fracs)
	}
	if fracs[0] != 0.75 { // (0.5+0.5+1+1)/4
		t.Fatalf("fraction = %v, want 0.75", fracs[0])
	}
}
