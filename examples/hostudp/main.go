// Host-side aggregation over real UDP sockets on loopback: the same Trio-ML
// protocol (trio_ml_hdr_t, source bitmaps, generation ids, straggler
// timeouts) served by internal/hostagg instead of simulated hardware. One
// of the three workers straggles on the second round, and the server's
// timeout releases a degraded partial result.
//
//	go run ./examples/hostudp
package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/trioml/triogo/internal/hostagg"
)

func main() {
	const workers = 3
	srv, err := hostagg.NewServer(hostagg.ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: workers, Timeout: 200 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	fmt.Printf("aggregation server on %v (timeout 200ms)\n\n", srv.Addr())

	clients := make([]*hostagg.Client, workers)
	for w := range clients {
		clients[w], err = hostagg.NewClient(hostagg.ClientConfig{
			ServerAddr: srv.Addr().String(), JobID: 1, SrcID: uint8(w), Window: 8,
		})
		if err != nil {
			panic(err)
		}
		defer clients[w].Close()
	}

	// Round 1: everyone participates.
	const n = 3000
	allReduce := func(gen uint16, slow int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				if w == slow {
					fmt.Printf("  worker %d straggling (sleeping past the timeout)...\n", w)
					time.Sleep(600 * time.Millisecond)
					return // its contribution is never sent
				}
				grads := make([]int32, n)
				for i := range grads {
					grads[i] = int32(w + 1)
				}
				start := time.Now()
				sum, err := clients[w].AllReduce(gen, grads, 1024, workers, 10*time.Second)
				if err != nil {
					fmt.Printf("  worker %d: %v\n", w, err)
					return
				}
				fmt.Printf("  worker %d got sums (lane0=%d) in %v\n", w, sum[0], time.Since(start).Round(time.Millisecond))
			}()
		}
		wg.Wait()
	}

	fmt.Println("round 1 (gen 1): all workers contribute; expect lane0 sum = 1+2+3 = 6")
	allReduce(1, -1)

	fmt.Println("\nround 2 (gen 2): worker 2 straggles; partial results are rescaled by 3/2")
	allReduce(2, 2)

	st := srv.Stats()
	fmt.Printf("\nserver: %d packets, %d blocks completed, %d degraded, %d stale\n",
		st.Packets, st.Completed, st.Degraded, st.StaleDrops)
}
