package trioml

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/trioml/triogo/internal/microcode"
	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/packet"
	"github.com/trioml/triogo/internal/sim"
	"github.com/trioml/triogo/internal/trio/pfe"
	"github.com/trioml/triogo/internal/trio/smem"
)

// refGradStream is the per-gradient streaming state aggregateGradients used
// to run on — one push per decoded gradient, a 4-byte carry for gradients
// split across head/tail or chunk edges, and every staged batch re-encoded to
// wire lanes for the first source's write and for the later sources' vector
// add, one XTXN per chunk at the thread's clock — kept as the oracle for
// gradStream, which hands a packet's whole run over in one call.
type refGradStream struct {
	ctx        *pfe.Ctx
	bufAddr    uint64
	first      bool
	totalGrads int
	gradIdx    int
	batch      []int32
	batchBuf   [chunkGrads]int32
	carry      [4]byte
	carryLen   int
	wbuf       [4*chunkGrads + 8]byte
}

func (g *refGradStream) push(v int32) {
	g.batch = append(g.batch, v)
	g.gradIdx++
	if len(g.batch) == chunkGrads {
		g.ctx.ChargeInstr(instrPerChunk)
		g.flush()
	}
}

func (g *refGradStream) flush() {
	if len(g.batch) == 0 {
		return
	}
	addr := g.bufAddr + uint64(4*(g.gradIdx-len(g.batch)))
	n := 4 * len(g.batch)
	packet.PutGradients(g.wbuf[:n], g.batch)
	if g.first {
		for ; n%8 != 0; n++ {
			g.wbuf[n] = 0
		}
		g.ctx.MemWrite(addr, g.wbuf[:n], true)
	} else {
		g.ctx.AddVector32BE([]sim.Time{g.ctx.Now()}, addr, g.wbuf[:n])
	}
	g.batch = g.batch[:0]
}

func (g *refGradStream) consume(b []byte) {
	if g.carryLen > 0 {
		n := copy(g.carry[g.carryLen:], b)
		g.carryLen += n
		b = b[n:]
		if g.carryLen < 4 {
			return
		}
		g.carryLen = 0
		if g.gradIdx < g.totalGrads {
			g.push(int32(binary.BigEndian.Uint32(g.carry[:])))
		}
	}
	for len(b) >= 4 && g.gradIdx < g.totalGrads {
		g.push(int32(binary.BigEndian.Uint32(b)))
		b = b[4:]
	}
	if len(b) > 0 {
		g.carryLen = copy(g.carry[:], b)
	}
}

func (g *refGradStream) start(ctx *pfe.Ctx, bufAddr uint64, first bool, grads int) {
	g.ctx = ctx
	g.bufAddr = bufAddr
	g.first = first
	g.totalGrads = grads
	g.gradIdx = 0
	g.batch = g.batchBuf[:0]
	g.carryLen = 0
}

func (g *refGradStream) finish() {
	if len(g.batch) > 0 {
		g.ctx.ChargeInstr(instrPerChunk * len(g.batch) / chunkGrads)
		g.flush()
	}
	g.ctx = nil
}

func (g *refGradStream) aggregate(ctx *pfe.Ctx, f *packet.Frame, h *packet.TrioML, bufAddr uint64, firstSource bool) {
	hdrLen := packet.EthernetLen + f.IP.HeaderLen() + packet.UDPLen + packet.TrioMLHeaderLen
	head := ctx.Head()
	g.start(ctx, bufAddr, firstSource, int(h.GradCnt))
	if hdrLen < len(head) {
		g.consume(head[hdrLen:])
	}
	for off := 0; off < ctx.TailLen() && g.gradIdx < g.totalGrads; off += 64 {
		g.consume(ctx.ReadTail(off, 64))
	}
	g.finish()
}

// consumeSplit hands consume a frame's gradient bytes the way a PFE whose
// heads were split bytes long would: the head's past the headers, then the
// rest of the frame in 64-byte tail reads.
func consumeSplit(frame []byte, split, hdrLen int, consume func([]byte)) {
	head := frame[:min(split, len(frame))]
	if hdrLen < len(head) {
		consume(head[hdrLen:])
	}
	for off := len(head); off < len(frame); off += 64 {
		consume(frame[off:min(off+64, len(frame))])
	}
}

// streamApp runs just the gradient streaming of Fig. 10 on each packet —
// through the reference or through the Aggregator's gradStream — and records
// what the thread looked like afterwards. At split 0 the stream reads the
// PFE's own head and tail; otherwise it is driven over the frame as if the
// head were split bytes long.
type streamApp struct {
	ref   *refGradStream // nil: the real path
	agg   Aggregator
	split int
	buf   uint64
	first bool
	frame packet.Frame
	now   []sim.Time
	stats []microcode.Stats
}

func (s *streamApp) Process(ctx *pfe.Ctx) {
	if err := packet.DecodeInto(&s.frame, ctx.Head()); err != nil || !s.frame.IsTrioML() {
		panic(fmt.Sprintf("streamApp: not a Trio-ML head: %v", err))
	}
	hdrLen := packet.EthernetLen + s.frame.IP.HeaderLen() + packet.UDPLen + packet.TrioMLHeaderLen
	grads := int(s.frame.ML.GradCnt)
	switch {
	case s.split == 0 && s.ref != nil:
		s.ref.aggregate(ctx, &s.frame, s.frame.ML, s.buf, s.first)
	case s.split == 0:
		s.agg.aggregateGradients(ctx, &s.frame, s.frame.ML, s.buf, s.first)
	case s.ref != nil:
		s.ref.start(ctx, s.buf, s.first, grads)
		consumeSplit(ctx.Packet().Frame, s.split, hdrLen, s.ref.consume)
		s.ref.finish()
	default:
		g := &s.agg.gs
		g.start(ctx, ctx.Packet().Frame[hdrLen:], s.buf, s.first, grads)
		consumeSplit(ctx.Packet().Frame, s.split, hdrLen, func(b []byte) { g.consume(len(b)) })
		g.finish()
	}
	s.now = append(s.now, ctx.Now())
	s.stats = append(s.stats, ctx.Stats())
	ctx.Consume()
}

type streamRig struct {
	eng *sim.Engine
	pfe *pfe.PFE
	app *streamApp
}

func newStreamRig(split int, ref bool) *streamRig {
	eng := sim.NewEngine()
	p := pfe.New(eng, pfe.DefaultConfig())
	app := &streamApp{split: split, buf: p.Mem.Alloc(smem.TierDRAM, 4*packet.MaxGradientsPerPacket+8)}
	if ref {
		app.ref = &refGradStream{}
	}
	p.SetApp(app)
	return &streamRig{eng: eng, pfe: p, app: app}
}

// TestGradStreamMatchesPerGradientReference is the gate for gradStream: every gradient count 1..1024, with the head/tail split landing
// on every byte residue of a gradient (the PFE's own pfe.HeadBytes split, and
// the stream driven directly over splits 189..191, 96 and a whole-frame head;
// the header pushed along by IP options), as the first source (write) and as a later one
// (add), plus packets that carry fewer or more gradient bytes than grad_cnt
// claims or end mid-gradient. Thread time, instruction/XTXN/stall counters, every RMW engine's
// statistics and the aggregation buffer's bytes must all match.
func TestGradStreamMatchesPerGradientReference(t *testing.T) {
	for _, split := range []int{0, 191, 190, 189, 96, 8192} {
		for _, optLen := range []int{0, 4, 12, 40} {
			t.Run(fmt.Sprintf("head=%d/ipopts=%d", cmp.Or(split, pfe.HeadBytes), optLen), func(t *testing.T) {
				ref, got := newStreamRig(split, true), newStreamRig(split, false)
				spec := packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000,
					IPOptions: make([]byte, optLen)}
				send := func(claimed, carried int, first bool, chop ...int) {
					grads := make([]int32, carried)
					for i := range grads {
						grads[i] = int32(uint32(i+1) * 2654435761 * uint32(claimed))
					}
					frame := packet.BuildTrioML(spec, packet.TrioML{JobID: 1, GradCnt: uint16(claimed)}, grads)
					for _, c := range chop { // lose the frame's last bytes: it ends mid-gradient
						frame = frame[:len(frame)-c]
					}
					for _, r := range []*streamRig{ref, got} {
						r.app.first = first
						r.pfe.Inject(0, 1, frame)
						r.eng.Run()
					}
					what := fmt.Sprintf("grad_cnt %d (%d carried), first=%v", claimed, carried, first)
					n := len(ref.app.now) - 1
					if len(got.app.now) != n+1 || ref.app.now[n] != got.app.now[n] || ref.app.stats[n] != got.app.stats[n] {
						t.Fatalf("%s: thread ended at %v with %+v, reference %v with %+v",
							what, got.app.now[n], got.app.stats[n], ref.app.now[n], ref.app.stats[n])
					}
					if !reflect.DeepEqual(ref.pfe.Mem.Stats(), got.pfe.Mem.Stats()) {
						t.Fatalf("%s: RMW engine stats diverge\n got       %+v\n reference %+v", what, got.pfe.Mem.Stats(), ref.pfe.Mem.Stats())
					}
					size := 4*packet.MaxGradientsPerPacket + 8
					if !bytes.Equal(ref.pfe.Mem.ReadRaw(ref.app.buf, size), got.pfe.Mem.ReadRaw(got.app.buf, size)) {
						t.Fatalf("%s: aggregation buffers differ", what)
					}
				}
				for n := 1; n <= packet.MaxGradientsPerPacket; n++ {
					send(n, n, true)
					send(n, n, false)
				}
				for _, n := range []int{1, 17, 34, 35, 100, 900} {
					send(n, n-1, false) // truncated: the last gradient never arrives
					send(n, n+3, true)  // trailing bytes past grad_cnt are not gradients
					send(n, n+40, false)
					for chop := 1; chop <= 3; chop++ {
						send(n, n, chop == 2, chop)
					}
				}
			})
		}
	}
}

// TestGradStreamTraceMatchesPerChunk pins what a trace and the thread's
// counters show of the one-call gradient run: with an obs.Trace attached, a
// 1024-gradient contribution (and a 1001-gradient one, whose last chunk is
// partial), as a block's first source and as a later one, emits the same
// rmw/write and rmw/add_vector spans as the per-chunk reference — one per
// 64-byte XTXN, on the same track, with the same start and duration — and
// counts the same XTXNs.
func TestGradStreamTraceMatchesPerChunk(t *testing.T) {
	type span struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Tid  int64   `json:"tid"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	run := func(ref bool, grads int) ([]span, []microcode.Stats) {
		r := newStreamRig(0, ref)
		var buf bytes.Buffer
		tr := obs.NewTrace(&buf, 0)
		r.pfe.SetTrace(tr)
		g := make([]int32, grads)
		for i := range g {
			g[i] = int32(i * 7919)
		}
		spec := packet.UDPSpec{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 100}, SrcPort: 5000}
		frame := packet.BuildTrioML(spec, packet.TrioML{JobID: 1, GradCnt: uint16(grads)}, g)
		for _, first := range []bool{true, false} {
			r.app.first = first
			r.pfe.Inject(0, 1, frame)
			r.eng.Run()
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		var events []span
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		var rmw []span
		for _, e := range events {
			if e.Cat == "rmw" && (e.Name == "write" || e.Name == "add_vector") {
				rmw = append(rmw, e)
			}
		}
		// The one-call run records its spans after the loop's tail reads, so
		// the trace holds them in another order: compare them as a set.
		slices.SortFunc(rmw, func(a, b span) int {
			return cmp.Or(cmp.Compare(a.Name, b.Name), cmp.Compare(a.Tid, b.Tid), cmp.Compare(a.Ts, b.Ts), cmp.Compare(a.Dur, b.Dur))
		})
		return rmw, r.app.stats
	}
	for _, grads := range []int{1024, 1001} {
		want, wantStats := run(true, grads)
		got, gotStats := run(false, grads)
		if n := (grads + chunkGrads - 1) / chunkGrads; len(want) != 2*n {
			t.Fatalf("%d gradients: reference traced %d rmw spans, want %d", grads, len(want), 2*n)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%d gradients: rmw spans\n got       %v\n reference %v", grads, got, want)
		}
		if !slices.Equal(gotStats, wantStats) {
			t.Fatalf("%d gradients: thread counters %+v, reference %+v", grads, gotStats, wantStats)
		}
	}
}
