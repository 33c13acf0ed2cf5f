package trioml

import (
	"net"
	"slices"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/aggcore"
	"github.com/trioml/triogo/internal/hostagg"
	"github.com/trioml/triogo/internal/packet"
)

// The trace world: one four-source job, three block ids, four generations
// straddling the 16-bit wrap, blocks of 0..4 gradients. The PFE's
// BlockGradMax is 3, so a 4-gradient contribution is refused there and valid
// at the host, whose limit is packet.MaxGradientsPerPacket.
const (
	traceSources    = 4
	traceBlocks     = 3
	tracePFEGradMax = 3
	traceMaxEvents  = 64 // fewer completions than the replay windows hold
)

var traceGens = [4]uint16{0xFFFE, 0xFFFF, 0, 1}

type traceEvent struct {
	src   uint8 // 4 and 5 are outside the job
	block uint32
	gen   uint16
	n     int // gradients; 0 is an empty block
	scale int32
}

// decodeTrace reads four bytes per event: source, block and generation,
// size, gradient scale.
func decodeTrace(data []byte) []traceEvent {
	var tr []traceEvent
	for len(data) >= 4 && len(tr) < traceMaxEvents {
		tr = append(tr, traceEvent{
			src:   data[0] % 6,
			block: uint32(data[1] % traceBlocks),
			gen:   traceGens[data[1]/traceBlocks%4],
			n:     int(data[2] % 5),
			scale: int32(int8(data[3])),
		})
		data = data[4:]
	}
	return tr
}

func encodeTrace(evs ...traceEvent) []byte {
	var b []byte
	for _, e := range evs {
		g := slices.Index(traceGens[:], e.gen)
		b = append(b, e.src, byte(int(e.block)+traceBlocks*g), byte(e.n), byte(int8(e.scale)))
	}
	return b
}

// traceResult is a result a shell must send: a completion or a replay.
type traceResult struct {
	block  uint32
	gen    uint16
	srcCnt int
	sums   []int32
}

// traceBlock is the model's state for one block id.
type traceBlock struct {
	open   bool // a record is collecting generation gen
	gen    uint16
	n      int
	rcvd   aggcore.Mask
	sums   []int32
	served *traceResult // the last result served, if any
}

func (b *traceBlock) view() aggcore.Block {
	switch {
	case b.open:
		return aggcore.Record(b.gen, b.n, &b.rcvd)
	case b.served != nil:
		return aggcore.Cached(b.served.gen)
	}
	return aggcore.Block{}
}

// traceModel runs the trace on aggcore.Decide alone and keeps what each
// action implies: the block states, the sums, the served results, and how
// many times each action was taken.
type traceModel struct {
	job        aggcore.Job
	blocks     [traceBlocks]traceBlock
	actions    [aggcore.Add + 1]uint64
	unadmitted uint64 // refusals Admits makes: the host counts them apart
	grads      uint64 // gradients added
}

func newTraceModel(gradMax int) *traceModel {
	var members aggcore.Mask
	for s := uint8(0); s < traceSources; s++ {
		members.Set(s)
	}
	return &traceModel{job: aggcore.NewJob(members, gradMax)}
}

// step decides e and applies the action, returning it and the result the
// shell must send for it, if any.
func (m *traceModel) step(e traceEvent, grads []int32) (aggcore.Action, *traceResult) {
	b := &m.blocks[e.block]
	v := b.view()
	act := aggcore.Decide(e.src, e.gen, e.n, &m.job, &v)
	m.actions[act]++
	if !m.job.Admits(e.src, e.n) {
		m.unadmitted++
	}
	switch act {
	case aggcore.Replay:
		return act, b.served
	case aggcore.Open, aggcore.Restart:
		*b = traceBlock{open: true, gen: e.gen, n: e.n, sums: slices.Clone(grads), served: b.served}
	case aggcore.Add:
		for i, g := range grads {
			b.sums[i] += g
		}
	default:
		return act, nil
	}
	m.grads += uint64(e.n)
	b.rcvd.Set(e.src)
	cnt := 0
	for s := uint8(0); s < traceSources; s++ {
		if b.rcvd.Has(s) {
			cnt++
		}
	}
	if cnt < traceSources {
		return act, nil
	}
	*b = traceBlock{served: &traceResult{block: e.block, gen: e.gen, srcCnt: cnt, sums: b.sums}}
	return act, b.served
}

// open counts the blocks the model holds open.
func (m *traceModel) open() int {
	n := 0
	for _, b := range m.blocks {
		if b.open {
			n++
		}
	}
	return n
}

func checkTraceResult(t *testing.T, i int, shell string, want *traceResult, hdr packet.TrioML, grads []int32) {
	t.Helper()
	if hdr.BlockID != want.block || hdr.GenID != want.gen || int(hdr.SrcCnt) != want.srcCnt || hdr.Degraded ||
		!slices.Equal(grads, want.sums) {
		t.Fatalf("event %d: %s sent %+v %v, want block %d gen %d from %d sources, sums %v",
			i, shell, hdr, grads, want.block, want.gen, want.srcCnt, want.sums)
	}
}

// FuzzAggTrace runs one contribution trace through aggcore.Decide, a host
// block table and the PFE aggregator, replay on in both, and holds each shell
// to what the core's action sequence predicts: after every event, the result
// or replay it sent (or that it sent none) and, on the PFE, the record's REF
// flag (set by an added contribution, clear after any other); at the end,
// every counter the actions imply. The seeds are the three PFE admission
// bugs (a foreign source completing an open block, an oversized generation
// restart, stale retransmits keeping a record referenced) and one trace
// through duplicates, a mismatch, a restart across the generation wrap, a
// stale drop, a replay and an open over a served block.
func FuzzAggTrace(f *testing.F) {
	ev := func(src uint8, block uint32, gen uint16, n int, scale int32) traceEvent {
		return traceEvent{src: src, block: block, gen: gen, n: n, scale: scale}
	}
	f.Add(encodeTrace( // a foreign source contributes to an open block
		ev(0, 1, 1, 3, 1), ev(5, 1, 1, 3, 100), ev(1, 1, 1, 3, 1), ev(2, 1, 1, 3, 1), ev(3, 1, 1, 3, 1)))
	f.Add(encodeTrace( // a restart larger than the PFE's blocks, next to an open block
		ev(0, 2, 0xFFFE, 3, 1), ev(0, 1, 0xFFFE, 3, 1), ev(0, 1, 0xFFFF, 4, 100),
		ev(1, 2, 0xFFFE, 3, 1), ev(2, 2, 0xFFFE, 3, 1), ev(3, 2, 0xFFFE, 3, 1)))
	f.Add(encodeTrace( // stale retransmits while a newer generation waits
		ev(0, 0, 0, 2, 1), ev(1, 0, 0, 2, 1), ev(2, 0, 0, 2, 1), ev(3, 0, 0, 2, 1),
		ev(0, 0, 1, 2, 1), ev(3, 0, 0, 2, 1), ev(3, 0, 0, 2, 1), ev(3, 0, 0, 2, 1)))
	f.Add(encodeTrace(
		ev(0, 0, 0xFFFF, 2, 1), ev(0, 0, 0xFFFF, 2, 1), ev(1, 0, 0xFFFF, 1, 1), ev(1, 2, 1, 0, 1),
		ev(1, 0, 0, 2, 2), ev(2, 0, 0xFFFE, 2, 3), ev(0, 0, 0, 2, 4), ev(2, 0, 0, 2, 5), ev(3, 0, 0, 2, 6),
		ev(2, 0, 0, 2, 5), ev(4, 0, 0, 2, 5), ev(1, 0, 1, 2, 7)))

	addrs := make([]*net.UDPAddr, 6)
	for i := range addrs {
		addrs[i] = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7000 + i}
	}
	now := time.Unix(1, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		trace := decodeTrace(data)
		hostM, pfeM := newTraceModel(packet.MaxGradientsPerPacket), newTraceModel(tracePFEGradMax)
		tab, err := hostagg.NewTable(hostagg.ServerConfig{NumWorkers: traceSources, ReplayWindow: traceMaxEvents})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fourWorkerJob()
		cfg.BlockGradMax = tracePFEGradMax
		r := newRig(t, cfg)
		if err := r.agg.EnableResultReplay(cfg.JobID, traceMaxEvents); err != nil {
			t.Fatal(err)
		}
		for i, e := range trace {
			grads := seqGrads(e.n, e.scale)

			_, want := hostM.step(e, grads)
			var sent [][]byte
			hdr := packet.TrioML{JobID: cfg.JobID, BlockID: e.block, SrcID: e.src, GenID: e.gen}
			tab.Handle(now, hostagg.AppendBlock(nil, hdr, grads), addrs[e.src], func(b []byte, _ *net.UDPAddr) {
				sent = append(sent, slices.Clone(b))
			})
			if (want == nil) != (len(sent) == 0) {
				t.Fatalf("event %d %+v: host sent %d datagrams, want result %v", i, e, len(sent), want)
			}
			for _, b := range sent {
				var h packet.TrioML
				rest, err := h.Unmarshal(b)
				if err != nil {
					t.Fatalf("event %d: host result: %v", i, err)
				}
				got, _ := packet.Gradients(rest, int(h.GradCnt))
				checkTraceResult(t, i, "host", want, h, got)
			}

			act, want := pfeM.step(e, grads)
			nres := len(r.results)
			r.send(int(e.src), e.block, e.gen, grads)
			r.eng.Run()
			if (want == nil) != (len(r.results) == nres) {
				t.Fatalf("event %d %+v: PFE sent %d results, want result %v", i, e, len(r.results)-nres, want)
			}
			for _, res := range r.results[nres:] {
				checkTraceResult(t, i, "PFE", want, res.hdr, res.grads)
			}
			ref, held := r.pfe.Hash.Ref(Key(cfg.JobID, e.block))
			if held != pfeM.blocks[e.block].open || held && ref != act.Adds() {
				t.Fatalf("event %d %+v (%v): PFE record held %v, REF %v", i, e, act, held, ref)
			}
		}

		n := hostM.actions
		st := tab.Stats()
		if st.BadPackets+st.GradMismatch != n[aggcore.Refuse] || st.BadPackets != hostM.unadmitted ||
			st.StaleDrops != n[aggcore.Stale] || st.Duplicates != n[aggcore.Duplicate] ||
			st.ResultReplays != n[aggcore.Replay] || st.GenRestarts != n[aggcore.Restart] ||
			st.Packets != uint64(len(trace))-hostM.unadmitted || tab.Pending() != hostM.open() {
			t.Fatalf("host stats %+v, pending %d; core actions %v", st, tab.Pending(), n)
		}
		n = pfeM.actions
		ps := r.agg.Stats()
		if ps.NonAggPkts != n[aggcore.Refuse] || ps.StaleDrops != n[aggcore.Stale] ||
			ps.Duplicates != n[aggcore.Duplicate] || ps.ResultReplays != n[aggcore.Replay] ||
			ps.BlocksCreated != n[aggcore.Open] || ps.GradsAggregated != pfeM.grads ||
			ps.Packets != uint64(len(trace)) {
			t.Fatalf("PFE stats %+v; core actions %v", ps, n)
		}
	})
}
