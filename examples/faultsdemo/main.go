// Deterministic fault injection against the host aggregation stack: a
// seeded faults.Plan drops 30% of contributions at the server's ingress and
// crashes the block table every few contributions, while the clients' periodic
// retransmission and the server's served-result replay cache repair the
// damage. The reduction still converges on the bit-exact full sum, and the
// plan's counters show exactly which faults fired — rerun it and every
// number reproduces, because all fault randomness flows from the seed.
//
//	go run ./examples/faultsdemo
package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/hostagg"
)

func main() {
	const workers = 3
	plan := faults.NewPlan(1, faults.Config{Hostagg: faults.HostaggConfig{
		RecvDropProb: 0.3, // 30% of contributions vanish before aggregation
		CrashEvery:   25,  // every 25th aggregated contribution wipes the table's open blocks
	}})
	srv, err := hostagg.NewServer(hostagg.ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: workers,
		ReplayWindow: 128, // answer retransmits of already-served blocks
		Faults:       plan.Hostagg(),
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	fmt.Printf("aggregation server on %v with injected faults (seed 1)\n", srv.Addr())
	fmt.Println("  30% ingress drop, table crash every 25 contributions")
	fmt.Println()

	const n, blockGrads = 6000, 512
	var wg sync.WaitGroup
	sums := make([][]int32, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		w := w
		c, err := hostagg.NewClient(hostagg.ClientConfig{
			ServerAddr: srv.Addr().String(), JobID: 1, SrcID: uint8(w), Window: 8,
			RetransmitEvery: 25 * time.Millisecond, // repair lost contributions
		})
		if err != nil {
			panic(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			grads := make([]int32, n)
			for i := range grads {
				grads[i] = int32((w + 1) * (i%101 - 50))
			}
			sum, err := c.AllReduce(1, grads, blockGrads, workers, 30*time.Second)
			if err != nil {
				panic(err)
			}
			sums[w] = sum
			st := c.Stats()
			fmt.Printf("  worker %d done: %d results, %d retransmits\n",
				w, st.Delivered, st.Retransmits)
		}()
	}
	wg.Wait()

	exact := true
	for i := 0; i < n && exact; i++ {
		want := int32(6 * (i%101 - 50)) // (1+2+3) x base pattern
		for w := 0; w < workers; w++ {
			if sums[w][i] != want {
				exact = false
				fmt.Printf("  MISMATCH at gradient %d: %d != %d\n", i, sums[w][i], want)
				break
			}
		}
	}
	fmt.Printf("\nall %d gradients bit-exact despite faults: %v (%.0f ms wall)\n",
		n, exact, time.Since(start).Seconds()*1000)

	fst := plan.Stats()
	sst := srv.Stats()
	fmt.Printf("injected: %d contributions dropped, %d table crashes\n",
		fst.HostaggRecvDrops, fst.HostaggCrashes)
	fmt.Printf("repaired: %d duplicates deduped, %d results replayed from cache\n",
		sst.Duplicates, sst.ResultReplays)
}
