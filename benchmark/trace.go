package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanKind names a boundary the benchmark itself crosses into a layer. The
// program under test carries no spans of its own yet (ROADMAP item 4), so
// every span here wraps a call the benchmark makes through a public function.
type spanKind uint8

const (
	spRun       spanKind = iota // one timed repetition's drive loop (root)
	spSetup                     // rig / tree / server construction
	spBuild                     // packet.BuildTrioML at a client send
	spDecode                    // packet.DecodeInto at a client receive
	spVerify                    // the benchmark's own result check
	spLinkSend                  // netsim.Link.Send called by the benchmark
	spInject                    // trio.Router.Inject in the benchmark's link receiver
	spTreeRun                   // tree.Tree.Run
	spOp                        // one hostagg all-reduce, both clients
	spAllReduce                 // hostagg.Client.AllReduce on one client
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"bench.run", "bench.setup", "packet.build", "packet.decode", "bench.verify",
	"netsim.send", "trio.pfe.inject", "tree.run", "hostagg.op", "hostagg.client.allreduce",
}

// maxSpans bounds the spans kept verbatim for the trace file; every span
// still lands in the per-kind totals, which is what the metrics read.
const maxSpans = 50_000

// span is one record of the trace file. Start and End are nanoseconds since
// the tracer was created; Parent indexes the enclosing span in the same
// track (-1 for a root); ID is the block or operation the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	ID     uint32 `json:"id"`
}

type openSpan struct {
	kind  spanKind
	id    uint32
	start int64
	child int64 // time covered by spans nested inside this one
	index int32 // position in spans, or -1 when past maxSpans
}

// tracer records spans of one goroutine in memory. A nil *tracer is the
// tracing-off state: every method is a no-op, so call sites need no guard.
type tracer struct {
	track string
	t0    time.Time
	spans []span
	open  []openSpan
	count [numSpanKinds]uint64
	total [numSpanKinds]int64 // span durations
	self  [numSpanKinds]int64 // durations minus nested spans
}

func newTracer(track string, t0 time.Time) *tracer {
	return &tracer{track: track, t0: t0, open: make([]openSpan, 0, 8)}
}

func (t *tracer) begin(k spanKind, id uint32) {
	if t == nil {
		return
	}
	o := openSpan{kind: k, id: id, index: -1}
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].index
		}
		o.index = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: spanNames[k], Parent: parent, ID: id})
	}
	o.start = int64(time.Since(t.t0))
	t.open = append(t.open, o)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	n := len(t.open) - 1
	o := t.open[n]
	t.open = t.open[:n]
	d := now - o.start
	t.count[o.kind]++
	t.total[o.kind] += d
	t.self[o.kind] += d - o.child
	if n > 0 {
		t.open[n-1].child += d
	}
	if o.index >= 0 {
		t.spans[o.index].Start, t.spans[o.index].End = o.start, now
	}
}

// first returns the driving goroutine's tracer, nil with tracing off.
func first(trs []*tracer) *tracer {
	if len(trs) == 0 {
		return nil
	}
	return trs[0]
}

// perCall reports the mean self time of kind k in nanoseconds, 0 if unseen.
func (t *tracer) perCall(k spanKind) float64 {
	if t == nil || t.count[k] == 0 {
		return 0
	}
	return float64(t.self[k]) / float64(t.count[k])
}

// traceFile is what -trace writes per workload: the verbatim spans of each
// track (capped at maxSpans) plus the complete per-kind totals.
type traceFile struct {
	Workload string       `json:"workload"`
	Tracks   []traceTrack `json:"tracks"`
}

type traceTrack struct {
	Track  string      `json:"track"`
	Totals []spanTotal `json:"totals"`
	Spans  []span      `json:"spans"`
}

type spanTotal struct {
	Name    string `json:"name"`
	Count   uint64 `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func writeTrace(path, workload string, tracers []*tracer) error {
	tf := traceFile{Workload: workload}
	for _, t := range tracers {
		tt := traceTrack{Track: t.track, Spans: t.spans}
		for k := spanKind(0); k < numSpanKinds; k++ {
			if t.count[k] > 0 {
				tt.Totals = append(tt.Totals, spanTotal{spanNames[k], t.count[k], t.total[k], t.self[k]})
			}
		}
		tf.Tracks = append(tf.Tracks, tt)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
