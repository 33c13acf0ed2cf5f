package hostagg_test

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/hostagg"
)

// ExampleReduce runs three allreduce cores against one block table on a
// virtual clock, in one goroutine and with no socket: the wire is a queue
// that delivers each datagram in order, at once. A seeded fault plan drops
// 30% of contributions at the table's ingress and wipes its open blocks
// every 25 contributions; the workers' periodic retransmission and the
// table's served-result replay repair the damage, and the sums come out
// bit-exact. In the second round worker 2 straggles: the table's timeout
// releases degraded partials, which the other two rescale by 3/2 (§5).
// Every number reproduces, because all fault randomness flows from the
// plan's seed and nothing else moves.
func ExampleReduce() {
	const workers, n, blockGrads = 3, 6000, 512
	const sweepEvery = 50 * time.Millisecond // the Server's Timeout/4
	plan := faults.NewPlan(1, faults.Config{Hostagg: faults.HostaggConfig{
		RecvDropProb: 0.3, // 30% of contributions vanish before aggregation
		CrashEvery:   25,  // every 25th aggregated contribution wipes the open blocks
	}})
	tab, err := hostagg.NewTable(hostagg.ServerConfig{
		NumWorkers: workers, Timeout: 200 * time.Millisecond,
		ReplayWindow: 128, // answer retransmits of already-served blocks
		Faults:       plan.Hostagg(),
	})
	if err != nil {
		panic(err)
	}

	type datagram struct {
		w       int // the worker that sent it, or the one it is for
		toTable bool
		p       []byte
	}
	var wire []datagram
	addrs := make([]*net.UDPAddr, workers)
	for w := range addrs {
		addrs[w] = &net.UDPAddr{IP: net.IPv4(10, 0, 0, 1), Port: w}
	}
	send := func(p []byte, to *net.UDPAddr) { wire = append(wire, datagram{w: to.Port, p: bytes.Clone(p)}) }
	room := func(w int) func(int) ([]byte, error) {
		return func(n int) ([]byte, error) {
			p := make([]byte, n)
			wire = append(wire, datagram{w: w, toTable: true, p: p})
			return p, nil
		}
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}

	// Worker w contributes (w+1)*(i%101-50) at index i.
	base := func(i int) int32 { return int32(i%101 - 50) }
	epoch := time.Unix(0, 0)
	now, sweep := epoch, epoch.Add(sweepEvery)
	allReduce := func(gen uint16, straggler int) []*hostagg.Reduce {
		reds := make([]*hostagg.Reduce, workers)
		for w := range reds {
			if w == straggler {
				continue // its contribution is never sent
			}
			grads := make([]int32, n)
			for i := range grads {
				grads[i] = int32(w+1) * base(i)
			}
			cfg := hostagg.ClientConfig{JobID: 1, SrcID: uint8(w), Window: 8, RetransmitEvery: 25 * time.Millisecond}
			reds[w] = hostagg.NewReduce(now, cfg, gen, grads, blockGrads, workers, 10*time.Second)
			must(reds[w].Refill(room(w)))
		}
		for {
			for len(wire) > 0 {
				d := wire[0]
				wire = wire[1:]
				if r := reds[d.w]; d.toTable {
					tab.Handle(now, d.p, addrs[d.w], send)
				} else if r != nil && !r.Done() {
					must(r.Receive(now, d.p))
					if r.Done() {
						st := r.Stats()
						fmt.Printf("  worker %d done at %v: %d results, %d retransmits, sum[0] = %d\n",
							d.w, now.Sub(epoch), st.Delivered, st.Retransmits, r.Sum()[0])
					}
					must(r.Refill(room(d.w)))
				}
			}
			next, done := sweep, true
			for _, r := range reds {
				if r != nil && !r.Done() {
					done = false
					if r.Wake().Before(next) {
						next = r.Wake()
					}
				}
			}
			if done {
				return reds
			}
			now = next
			if now.Equal(sweep) {
				tab.Sweep(now, send)
				sweep = sweep.Add(sweepEvery)
			}
			for w, r := range reds {
				if r != nil && !r.Done() {
					must(r.Expire(now, room(w)))
				}
			}
		}
	}
	// exact reports whether every live worker's sum is want(i) at every i.
	exact := func(reds []*hostagg.Reduce, want func(i int) int32) bool {
		for _, r := range reds {
			for i := 0; r != nil && i < n; i++ {
				if r.Sum()[i] != want(i) {
					return false
				}
			}
		}
		return true
	}

	fmt.Println("round 1 (gen 1): 30% ingress drop, table crash every 25 contributions")
	reds := allReduce(1, -1)
	fst := plan.Stats()
	fmt.Printf("all %d gradients bit-exact despite faults: %v\n", n, exact(reds, func(i int) int32 { return 6 * base(i) }))
	fmt.Printf("injected: %d contributions dropped, %d table crashes\n", fst.HostaggRecvDrops, fst.HostaggCrashes)

	fmt.Println("\nround 2 (gen 2): worker 2 straggles; the degraded partials are rescaled by 3/2")
	reds = allReduce(2, 2)
	fmt.Printf("every sum is 3/2 x the two workers' sum: %v\n",
		exact(reds, func(i int) int32 { return int32(int64(3*base(i)) * 3 / 2) }))

	st := tab.Stats()
	fmt.Printf("\ntable: %d packets, %d completed, %d degraded, %d duplicates, %d results replayed\n",
		st.Packets, st.Completed, st.Degraded, st.Duplicates, st.ResultReplays)
	// Output:
	// round 1 (gen 1): 30% ingress drop, table crash every 25 contributions
	//   worker 0 done at 100ms: 12 results, 18 retransmits, sum[0] = -300
	//   worker 1 done at 100ms: 12 results, 18 retransmits, sum[0] = -300
	//   worker 2 done at 100ms: 12 results, 18 retransmits, sum[0] = -300
	// all 6000 gradients bit-exact despite faults: true
	// injected: 26 contributions dropped, 1 table crashes
	//
	// round 2 (gen 2): worker 2 straggles; the degraded partials are rescaled by 3/2
	//   worker 0 done at 500ms: 12 results, 104 retransmits, sum[0] = -225
	//   worker 1 done at 500ms: 12 results, 104 retransmits, sum[0] = -225
	// every sum is 3/2 x the two workers' sum: true
	//
	// table: 322 packets, 12 completed, 12 degraded, 129 duplicates, 24 results replayed
}
