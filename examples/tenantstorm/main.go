// Multi-tenant admission control under an aggressor storm (DESIGN.md §10):
// a victim tenant runs clean allreduce rounds while an aggressor tenant
// floods the server at 10x its token-bucket quota and hoards open blocks.
// The server sheds the aggressor's excess — token bucket first, then quota
// refusals and weighted-fair displacement — NACKs it with retry-after
// packets, and the per-tenant stats show the damage landing on the
// aggressor while the victim's sums stay bit-exact.
//
//	go run ./examples/tenantstorm
package main

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/trioml/triogo/internal/hostagg"
	"github.com/trioml/triogo/internal/packet"
)

const (
	victimJob    = 1
	aggressorJob = 2
	workers      = 2
)

func main() {
	srv, err := hostagg.NewServer(hostagg.ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: workers,
		MaxOpenBlocks: 4096, ReplayWindow: 128,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		TenantQuotas: map[uint8]hostagg.TenantQuota{
			victimJob:    {Weight: 4},
			aggressorJob: {PacketsPerSec: 500, PacketBurst: 50, MaxOpenBlocks: 8},
		},
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	fmt.Printf("aggregation server on %v\n", srv.Addr())
	fmt.Printf("  tenant %d (victim):    weight 4, no rate limit\n", victimJob)
	fmt.Printf("  tenant %d (aggressor): 500 pps token bucket, 8 open blocks max\n\n", aggressorJob)

	// The aggressor: raw UDP datagrams at roughly 5000 pps — 10x its quota —
	// each opening a fresh block id, so it hits the token bucket AND the
	// open-block quota.
	stop := make(chan struct{})
	var stormWG sync.WaitGroup
	stormWG.Add(1)
	go func() {
		defer stormWG.Done()
		conn, err := net.Dial("udp", srv.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		var buf []byte
		for blk := uint32(0); ; blk++ {
			select {
			case <-stop:
				return
			default:
			}
			buf = hostagg.AppendBlock(buf[:0], packet.TrioML{JobID: aggressorJob, BlockID: blk, GenID: 1}, []int32{1, 2, 3, 4})
			conn.Write(buf)
			if blk%5 == 4 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	fmt.Println("aggressor storming at ~5000 pps (quota: 500 pps)...")
	time.Sleep(300 * time.Millisecond) // let the storm establish

	// The victim: two workers, closed-form vectors so any lost or corrupted
	// contribution would show up in the sums.
	clients := make([]*hostagg.Client, workers)
	for w := range clients {
		clients[w], err = hostagg.NewClient(hostagg.ClientConfig{
			ServerAddr: srv.Addr().String(), JobID: victimJob, SrcID: uint8(w),
			Window: 64, RetransmitEvery: 20 * time.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		defer clients[w].Close()
	}

	const n = 2048
	exact := true
	for gen := uint16(1); gen <= 3; gen++ {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				grads := make([]int32, n)
				for i := range grads {
					grads[i] = int32(w+1) * int32(i%17+1)
				}
				sum, err := clients[w].AllReduce(gen, grads, 256, workers, 10*time.Second)
				if err != nil {
					fmt.Printf("  victim worker %d: %v\n", w, err)
					exact = false
					return
				}
				for i, g := range sum {
					if g != 3*int32(i%17+1) {
						exact = false
					}
				}
			}()
		}
		wg.Wait()
		fmt.Printf("  victim round %d completed in %v\n", gen, time.Since(start).Round(time.Microsecond))
	}
	close(stop)
	stormWG.Wait()

	fmt.Printf("\nvictim sums bit-exact under the storm: %v\n\n", exact)
	st := srv.Stats()
	fmt.Printf("server: %d packets, ladder=%s, rateShed=%d quotaShed=%d nacks=%d\n",
		st.Packets, st.OverloadState, st.RateShed, st.QuotaShed, st.NacksSent)
	for _, ts := range srv.TenantStats() {
		role := "victim"
		if ts.Tenant == aggressorJob {
			role = "aggressor"
		}
		fmt.Printf("tenant %d (%s): packets=%d rateShed=%d shed=%d evicted=%d nacked=%d open=%d\n",
			ts.Tenant, role, ts.Packets, ts.RateShed, ts.Shed, ts.Evicted, ts.Nacked, ts.OpenBlocks)
	}
}
