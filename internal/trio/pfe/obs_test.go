package pfe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
)

func TestRegisterObsExportsPFEMetrics(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, Config{ID: 2})
	p.SetApp(AppFunc(func(ctx *Ctx) {
		ctx.ChargeInstr(50)
		ctx.MemWrite(64, []byte("01234567"), false)
		ctx.Forward(0)
	}))
	reg := obs.NewRegistry()
	p.RegisterObs(reg)

	const n = Threads + 4
	for i := 0; i < n; i++ {
		p.Inject(0, uint64(i), frameOfSize(300, byte(i)))
	}
	eng.Run()

	snap := reg.Snapshot()
	want := map[string]float64{
		`triogo_pfe_packets_dispatched_total{pfe="2"}`: n,
		`triogo_pfe_packets_forwarded_total{pfe="2"}`:  n,
		`triogo_pfe_thread_capacity{pfe="2"}`:          Threads,
		`triogo_pfe_work_queue_depth{pfe="2"}`:         0,
	}
	for name, v := range want {
		if got := snap[name]; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	// Threads+4 simultaneous injections must saturate the pool and queue
	// the other 4.
	if got := snap[`triogo_pfe_busy_threads_peak{pfe="2"}`]; got != float64(Threads) {
		t.Errorf("busy threads peak = %v, want %d", got, Threads)
	}
	if got := snap[`triogo_pfe_thread_utilization_peak{pfe="2"}`]; got != 1.0 {
		t.Errorf("peak utilization = %v, want 1", got)
	}
	if got := snap[`triogo_pfe_work_queue_depth_peak{pfe="2"}`]; got != 4.0 {
		t.Errorf("queue depth peak = %v, want 4", got)
	}
}

// TestSetTraceRecordsSpans drives packets through a traced PFE and checks
// the emitted chrome-trace events: valid JSON, the expected categories, and
// PPE spans that never precede their packet's dispatch-queue span.
func TestSetTraceRecordsSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf, 0)

	eng := sim.NewEngine()
	p := New(eng, Config{ID: 1, NumPorts: 4})
	p.SetApp(AppFunc(func(ctx *Ctx) {
		ctx.ChargeInstr(20)
		ctx.MemReadInto(128, make([]byte, 16))
		ctx.HashInsert(ctx.Packet().Flow, 1)
		ctx.ReadTail(0, 16)
		ctx.Forward(1)
	}))
	p.SetTrace(tr)

	for i := 0; i < 6; i++ {
		p.Inject(0, uint64(i), frameOfSize(400, byte(i)))
	}
	eng.Run()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var events []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Pid  int64   `json:"pid"`
		Tid  int64   `json:"tid"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, e := range events {
		if e.Ph == "M" {
			continue
		}
		counts[e.Cat+"/"+e.Name]++
		if e.Pid != 1 {
			t.Fatalf("event %s/%s on pid %d, want 1", e.Cat, e.Name, e.Pid)
		}
		if e.Dur < 0 {
			t.Fatalf("event %s/%s has negative duration %v", e.Cat, e.Name, e.Dur)
		}
	}
	for _, k := range []string{
		"dispatch/queue", "ppe/packet", "rmw/read", "hash/insert",
		"pbuf/tail_read", "egress/tx", "pfe/work_queue_depth",
	} {
		if counts[k] == 0 {
			t.Errorf("no %s events recorded (have %v)", k, counts)
		}
	}
	if counts["ppe/packet"] != 6 {
		t.Errorf("ppe/packet spans = %d, want 6", counts["ppe/packet"])
	}
}

// TestUntracedPFEMatchesTraced pins that attaching a trace observes without
// perturbing: identical stats and virtual finish time either way.
func TestUntracedPFEMatchesTraced(t *testing.T) {
	run := func(tr *obs.Trace) (Stats, sim.Time) {
		eng := sim.NewEngine()
		p := New(eng, Config{})
		p.SetApp(AppFunc(func(ctx *Ctx) {
			ctx.ChargeInstr(30)
			ctx.MemWrite(256, []byte("abcdefgh"), true)
			ctx.Forward(2)
		}))
		p.SetTrace(tr)
		for i := 0; i < Threads+3; i++ { // the last 3 queue for a thread
			p.Inject(0, uint64(i), frameOfSize(250, byte(i)))
		}
		eng.Run()
		return p.Stats(), eng.Now()
	}

	plainStats, plainEnd := run(nil)
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf, 0)
	tracedStats, tracedEnd := run(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if plainStats != tracedStats {
		t.Errorf("stats diverge: untraced %+v, traced %+v", plainStats, tracedStats)
	}
	if plainEnd != tracedEnd {
		t.Errorf("finish time diverges: untraced %v, traced %v", plainEnd, tracedEnd)
	}
	if !strings.Contains(buf.String(), `"cat":"ppe"`) {
		t.Error("traced run recorded no ppe spans")
	}
}
