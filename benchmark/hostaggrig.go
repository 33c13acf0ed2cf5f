package main

import (
	"io"
	"log/slog"
	"math/rand/v2"
	"slices"
	"time"

	"github.com/trioml/triogo/internal/hostagg"
)

// hostaggSpec sizes a live run: a real hostagg server on loopback UDP and
// `clients` workers that all-reduce a vector together, op after op.
type hostaggSpec struct {
	clients    int
	window     int
	vector     int // gradients per all-reduce vector
	blockGrads int // gradients per datagram
	ops        int // timed all-reduce operations per repetition
	warmOps    int // untimed ones before them, part of set-up
}

// agingTimeout is the server's straggler timeout. Production would run
// tens of milliseconds; on the shared 2-vCPU reference box a client is
// descheduled that long about once in a minute of load, the block ages out to
// a degraded (rescaled, hence wrong) sum, and the workload fails. One second
// keeps the aging scanners running without ever firing on a healthy loopback.
const agingTimeout = time.Second

type hostaggRunner struct {
	spec hostaggSpec
	in   [][]int32 // per client input vector; lane 0 additionally carries the op number
	want []int32   // lane-wise sum over clients (lane 0 for op 0)
}

func newHostaggRunner(spec hostaggSpec, seed uint64) *hostaggRunner {
	r := &hostaggRunner{spec: spec, want: make([]int32, spec.vector)}
	rng := rand.New(rand.NewPCG(seed, 0x686f7374))
	for c := 0; c < spec.clients; c++ {
		v := make([]int32, spec.vector)
		for i := range v {
			v[i] = int32(rng.Uint32()>>12) - 1<<19
			r.want[i] += v[i]
		}
		r.in = append(r.in, v)
	}
	return r
}

// rep binds a fresh server and clients (production-shaped: aging, replay
// cache and client retransmission all on), warms them, then times spec.ops
// all-reduces. trs, when tracing, holds one tracer for the op loop followed
// by one per client goroutine.
func (r *hostaggRunner) rep(trs []*tracer) (*rep, error) {
	spec := r.spec
	out := &rep{}
	tr := first(trs)
	ctr := make([]*tracer, spec.clients) // nil entries: tracing off
	if trs != nil {
		copy(ctr, trs[1:])
	}

	tr.begin(spSetup, 0)
	t0 := time.Now()
	srv, err := hostagg.NewServer(hostagg.ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: spec.clients,
		Timeout: agingTimeout, ReplayWindow: 1024,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	clients := make([]*hostagg.Client, spec.clients)
	for c := range clients {
		clients[c], err = hostagg.NewClient(hostagg.ClientConfig{
			ServerAddr: srv.Addr().String(), JobID: 1, SrcID: uint8(c),
			Window: spec.window, RetransmitEvery: 20 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		defer clients[c].Close()
	}
	in := make([][]int32, spec.clients)
	for c := range in {
		in[c] = slices.Clone(r.in[c])
	}
	want := slices.Clone(r.want)

	// op runs one all-reduce on every client at once and returns when all
	// have their result. The wall time covers the calls only; the checks
	// against workers x input run after the clock stops.
	type reply struct {
		sum []int32
		err error
	}
	replies := make(chan reply, spec.clients)
	op := func(n int) (time.Duration, bool) {
		for c := range in {
			in[c][0] = r.in[c][0] + int32(n)
		}
		want[0] = r.want[0] + int32(n*spec.clients)
		tr.begin(spOp, uint32(n))
		start := time.Now()
		for c := range clients {
			go func() {
				ctr[c].begin(spAllReduce, uint32(n))
				sum, err := clients[c].AllReduce(uint16(n+1), in[c], spec.blockGrads, spec.clients, 30*time.Second)
				ctr[c].end()
				replies <- reply{sum, err}
			}()
		}
		got := make([]reply, spec.clients)
		for i := range got {
			got[i] = <-replies
		}
		d := time.Since(start)
		tr.begin(spVerify, uint32(n))
		ok := true
		for _, g := range got {
			if g.err != nil {
				out.note("op %d: %v", n, g.err)
				ok = false
			} else if !slices.Equal(g.sum, want) {
				out.note("op %d: sum differs from %d x input", n, spec.clients)
				ok = false
			}
		}
		tr.end()
		tr.end()
		return d, ok
	}
	for n := 0; n < spec.warmOps; n++ {
		if _, ok := op(n); !ok {
			out.failed++
		}
	}
	out.setup = time.Since(t0)
	tr.end()

	s0 := srv.Stats()
	out.opLat = make([]time.Duration, 0, spec.ops)
	out.host = measure(func() {
		tr.begin(spRun, 0)
		for n := 0; n < spec.ops; n++ {
			d, ok := op(spec.warmOps + n)
			if !ok {
				out.failed++
				continue // a failed operation has no latency to report
			}
			out.opLat = append(out.opLat, d)
		}
		tr.end()
	})
	s1 := srv.Stats()

	out.ops = spec.ops
	out.pkts = s1.Packets - s0.Packets
	out.payload = uint64(spec.ops) * uint64(4*spec.vector)
	shed := (s1.Shed - s0.Shed) + (s1.QuotaShed - s0.QuotaShed) + (s1.RateShed - s0.RateShed)
	dup, stale := s1.Duplicates-s0.Duplicates, s1.StaleDrops-s0.StaleDrops
	c := map[string]float64{
		"hostagg.server.packets":        float64(out.pkts),
		"hostagg.server.duplicates":     float64(dup),
		"hostagg.server.stale_drops":    float64(stale),
		"hostagg.server.completed":      float64(s1.Completed - s0.Completed),
		"hostagg.server.degraded":       float64(s1.Degraded - s0.Degraded),
		"hostagg.server.shed":           float64(shed),
		"hostagg.server.result_replays": float64(s1.ResultReplays - s0.ResultReplays),
		"hostagg.server.nacks_sent":     float64(s1.NacksSent - s0.NacksSent),
		"hostagg.server.useful_ratio":   ratio(float64(out.pkts-dup-stale-shed-(s1.ResultReplays-s0.ResultReplays)), float64(out.pkts)),
		"hostagg.client.allocs_per_op":  ratio(float64(out.host.mallocs), float64(spec.ops)),
		"hostagg.client.bytes_per_op":   ratio(float64(out.host.allocBytes), float64(spec.ops)),
	}
	for _, cl := range clients {
		cs := cl.Stats() // warm-up included: a client exposes no reset
		c["hostagg.client.retransmits"] += float64(cs.Retransmits)
		c["hostagg.client.nacked"] += float64(cs.Nacked)
		c["hostagg.client.results_dropped"] += float64(cs.Dropped)
	}
	if d := s1.Degraded - s0.Degraded; d > 0 {
		// The sums above already caught any wrong value; a degraded block on a
		// loss-free loopback still means the run measured the aging timer.
		out.note("%d blocks aged out to degraded results", d)
		out.failed = max(out.failed, 1)
	}
	out.counts = c
	return out, nil
}
