package trioml

import (
	"testing"

	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio"
)

// buildChassis reproduces the Fig. 11(b) topology: PFE0 and PFE1 each host
// three workers; PFE2 is the top-level aggregator.
func buildChassis(t *testing.T) (*sim.Engine, *trio.Router, *Hierarchy, *[]result) {
	t.Helper()
	eng := sim.NewEngine()
	r := trio.New(eng, trio.Config{NumPFEs: 3})
	h, err := SetupHierarchy(r, HierarchyConfig{
		JobID:  1,
		TopPFE: 2,
		Groups: []HierGroup{
			{PFE: 0, WorkerSrcIDs: []uint8{0, 1, 2}, WorkerPorts: []int{0, 1, 2}, UplinkPort: 15, TopPort: 0},
			{PFE: 1, WorkerSrcIDs: []uint8{3, 4, 5}, WorkerPorts: []int{0, 1, 2}, UplinkPort: 15, TopPort: 1},
		},
		ResultSpec: packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	results := &[]result{}
	for _, g := range []struct{ pfeIdx, nPorts int }{{0, 3}, {1, 3}} {
		for port := 0; port < g.nPorts; port++ {
			pfeIdx, port := g.pfeIdx, port
			r.AttachExternal(pfeIdx, port, func(p int, frame []byte, at sim.Time) {
				f, err := packet.Decode(frame)
				if err != nil || !f.IsTrioML() {
					t.Errorf("bad frame at worker: %v", err)
					return
				}
				grads, _ := packet.Gradients(f.Payload, int(f.ML.GradCnt))
				*results = append(*results, result{port: pfeIdx*10 + port, hdr: *f.ML, grads: grads, at: at})
			})
		}
	}
	return eng, r, h, results
}

func sendWorker(r *trio.Router, pfeIdx, port int, src uint8, block uint32, grads []int32) {
	frame := packet.BuildTrioML(packet.UDPSpec{
		SrcIP: [4]byte{10, 0, byte(pfeIdx), byte(port + 1)}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 6000,
	}, packet.TrioML{JobID: 1, BlockID: block, SrcID: src, GenID: 1}, grads)
	r.Inject(pfeIdx, port, uint64(src)<<32|uint64(block), frame)
}

func TestHierarchicalAggregationFig11(t *testing.T) {
	eng, r, h, results := buildChassis(t)
	// Six workers contribute distinct scales; final sum = 1+2+...+6 = 21×i.
	for w := 0; w < 6; w++ {
		pfeIdx, port := w/3, w%3
		sendWorker(r, pfeIdx, port, uint8(w), 0, seqGrads(256, int32(w+1)))
	}
	eng.Run()
	// Every worker receives the final result exactly once.
	if len(*results) != 6 {
		t.Fatalf("results = %d", len(*results))
	}
	ports := map[int]bool{}
	for _, res := range *results {
		ports[res.port] = true
		if res.hdr.SrcCnt != 2 {
			// Top level saw two sources (the two first-level PFEs).
			t.Fatalf("src_cnt = %d", res.hdr.SrcCnt)
		}
		for i, g := range res.grads {
			if g != 21*int32(i+1) {
				t.Fatalf("gradient %d = %d, want %d", i, g, 21*(i+1))
			}
		}
	}
	if len(ports) != 6 {
		t.Fatalf("distribution reached %v", ports)
	}
	// Data reduction property: the fabric carried 2 upstream results + 2
	// downstream multicasts, not 6 worker streams.
	var fabricFrames uint64
	for _, l := range h.Fabric {
		fabricFrames += l.Frames
	}
	if fabricFrames != 4 {
		t.Fatalf("fabric frames = %d, want 4", fabricFrames)
	}
	if h.Top.Stats().BlocksCompleted != 1 {
		t.Fatalf("top stats = %+v", h.Top.Stats())
	}
	for _, l := range h.Levels {
		if l.Stats().BlocksCompleted != 1 {
			t.Fatalf("level stats = %+v", l.Stats())
		}
	}
}

func TestHierarchicalManyBlocks(t *testing.T) {
	eng, r, h, results := buildChassis(t)
	const blocks = 20
	for b := uint32(0); b < blocks; b++ {
		for w := 0; w < 6; w++ {
			sendWorker(r, w/3, w%3, uint8(w), b, seqGrads(64, 1))
		}
	}
	eng.Run()
	if len(*results) != blocks*6 {
		t.Fatalf("results = %d, want %d", len(*results), blocks*6)
	}
	for _, res := range *results {
		if res.grads[0] != 6 {
			t.Fatalf("block %d sum = %d, want 6", res.hdr.BlockID, res.grads[0])
		}
	}
	if h.Top.Stats().BlocksCompleted != blocks {
		t.Fatalf("top completed = %d", h.Top.Stats().BlocksCompleted)
	}
}

func TestHierarchicalStragglerMitigation(t *testing.T) {
	eng, r, h, results := buildChassis(t)
	// Straggler detection runs at both levels; the top level uses a longer
	// timeout so a first-level partial can arrive before the top's own
	// block ages out.
	h.Top.StartStragglerDetection(50, 20*sim.Millisecond)
	for _, a := range h.Levels {
		a.StartStragglerDetection(50, 5*sim.Millisecond)
	}
	// Worker 5 (on PFE1) straggles; everyone else contributes.
	for w := 0; w < 5; w++ {
		sendWorker(r, w/3, w%3, uint8(w), 0, seqGrads(64, 1))
	}
	eng.RunUntil(30 * sim.Millisecond)
	if len(*results) != 6 {
		t.Fatalf("results = %d", len(*results))
	}
	res := (*results)[0]
	// PFE1's partial (2 of 3 workers) fed the top level, whose result is
	// complete at its own level but carries the degraded provenance.
	if res.grads[0] != 5 {
		t.Fatalf("sum = %d, want 5 (partial)", res.grads[0])
	}
	if h.Levels[1].Stats().BlocksDegraded != 1 {
		t.Fatalf("level-1 stats = %+v", h.Levels[1].Stats())
	}
}

func TestHierarchyConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	_ = eng
	r := trio.New(sim.NewEngine(), trio.Config{NumPFEs: 2})
	_, err := SetupHierarchy(r, HierarchyConfig{
		JobID: 1, TopPFE: 0,
		Groups: []HierGroup{{PFE: 0, WorkerSrcIDs: []uint8{0}, WorkerPorts: []int{0}, UplinkPort: 15, TopPort: 0}},
	}, nil)
	if err == nil {
		t.Fatal("group on top PFE accepted")
	}
	r2 := trio.New(sim.NewEngine(), trio.Config{NumPFEs: 2})
	_, err = SetupHierarchy(r2, HierarchyConfig{
		JobID: 1, TopPFE: 1,
		Groups: []HierGroup{{PFE: 0, WorkerSrcIDs: []uint8{0, 1}, WorkerPorts: []int{0}, UplinkPort: 15, TopPort: 0}},
	}, nil)
	if err == nil {
		t.Fatal("mismatched sources/ports accepted")
	}
}

// TestHierarchiesShareAChassis installs two jobs' hierarchies on one
// chassis, the second reusing the first's aggregators through the aggs map:
// each job's workers get their own job's sum, and the PFEs run one
// aggregator each.
func TestHierarchiesShareAChassis(t *testing.T) {
	eng := sim.NewEngine()
	r := trio.New(eng, trio.Config{NumPFEs: 3})
	aggs := map[int]*Aggregator{}
	spec := packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 100}, DstIP: [4]byte{224, 0, 1, 1}}
	// Job j's workers sit on ports 2j, 2j+1 of PFEs 0 and 1; its uplinks
	// use port 15-j and reach the top on ports 2j (PFE 0) and 2j+1 (PFE 1).
	var tops []*Aggregator
	for job := uint8(1); job <= 2; job++ {
		base := 2 * int(job-1)
		h, err := SetupHierarchy(r, HierarchyConfig{
			JobID: job, TopPFE: 2,
			Groups: []HierGroup{
				{PFE: 0, WorkerSrcIDs: []uint8{0, 1}, WorkerPorts: []int{base, base + 1}, UplinkPort: 15 - base/2, TopPort: base},
				{PFE: 1, WorkerSrcIDs: []uint8{2, 3}, WorkerPorts: []int{base, base + 1}, UplinkPort: 15 - base/2, TopPort: base + 1},
			},
			ResultSpec: spec,
		}, aggs)
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		tops = append(tops, h.Top)
	}
	if tops[0] != tops[1] || len(aggs) != 3 {
		t.Fatalf("second hierarchy built its own aggregators: %d in the map", len(aggs))
	}
	sums := map[uint8]int32{}
	for pfeIdx := 0; pfeIdx < 2; pfeIdx++ {
		for port := 0; port < 4; port++ {
			r.AttachExternal(pfeIdx, port, func(_ int, frame []byte, _ sim.Time) {
				f, err := packet.Decode(frame)
				if err != nil || !f.IsTrioML() {
					t.Errorf("bad frame at worker: %v", err)
					return
				}
				if want := uint8(port/2 + 1); f.ML.JobID != want {
					t.Errorf("job %d result on port %d, a job %d port", f.ML.JobID, port, want)
				}
				grads, _ := packet.Gradients(f.Payload, int(f.ML.GradCnt))
				sums[f.ML.JobID] += grads[0]
			})
		}
	}
	for job := uint8(1); job <= 2; job++ {
		base := 2 * int(job-1)
		for w := 0; w < 4; w++ {
			pfeIdx, port := w/2, base+w%2
			frame := packet.BuildTrioML(packet.UDPSpec{SrcIP: [4]byte{10, job, byte(pfeIdx), byte(port + 1)}, SrcPort: 6000},
				packet.TrioML{JobID: job, BlockID: 0, SrcID: uint8(w), GenID: 1}, seqGrads(64, int32(job)))
			r.Inject(pfeIdx, port, uint64(job)<<40|uint64(w), frame)
		}
	}
	eng.Run()
	// Four workers each get their job's sum of four contributions.
	if sums[1] != 4*4*1 || sums[2] != 4*4*2 {
		t.Fatalf("first-gradient sums over each job's workers = %v, want 16 and 32", sums)
	}
	if st := tops[0].Stats(); st.BlocksCompleted != 2 {
		t.Fatalf("top stats = %+v, want one block per job", st)
	}
}
