package hostagg

import (
	"flag"
	"net"
	"sync"
	"testing"
	"time"
)

// live gates the one test that compares wall-clock durations: ~100 µs rounds
// on a loaded 2-CPU box miss a 90% SLO every so often, whatever the server does.
var live = flag.Bool("live", false, "also run the wall-clock victim SLO over real loopback sockets")

// TestLiveVictimSLO is the part of the multi-tenant isolation claim that is
// about speed, so cannot run in virtual time (the harness's livechaos pins the
// decisions): over real loopback, with an aggressor tenant at 10x its
// token-bucket quota — fresh block ids (flood) or the same four (retxstorm) —
// the victim's fastest allreduce round stays within 90% of its aggressor-free
// baseline. Steady states are compared, so a contested measurement over the
// bound is retaken: a shedding failure is persistent, a descheduling is not.
func TestLiveVictimSLO(t *testing.T) {
	if !*live {
		t.Skip("wall-clock SLO over real sockets: run with -live (make verify-hostagg-slo)")
	}
	for name, sameBlocks := range map[string]uint32{"flood": 1 << 31, "retxstorm": 4} {
		t.Run(name, func(t *testing.T) {
			s, err := NewServer(ServerConfig{
				ListenAddr: "127.0.0.1:0", NumWorkers: 2,
				MaxOpenBlocks: 4096, ReplayWindow: 256,
				TenantQuotas: map[uint8]TenantQuota{
					1: {Weight: 4},
					2: {PacketsPerSec: 500, PacketBurst: 50, MaxOpenBlocks: 8},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var victims [2]*Client
			for w := range victims {
				victims[w], err = NewClient(ClientConfig{ServerAddr: s.Addr().String(), JobID: 1, SrcID: uint8(w),
					Window: 64, RetransmitEvery: 20 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				defer victims[w].Close()
			}
			const blocks, perBlk = 8, 128
			// best runs three rounds and returns the fastest; worker w sends
			// (w+1)*(i%17+1), so every sum must be exactly 3*(i%17+1).
			best := func(gen uint16) time.Duration {
				fastest := time.Duration(1 << 62)
				for r := uint16(0); r < 3; r++ {
					var wg sync.WaitGroup
					start := time.Now()
					for w, c := range victims {
						wg.Add(1)
						go func() {
							defer wg.Done()
							grads := make([]int32, blocks*perBlk)
							for i := range grads {
								grads[i] = int32(w+1) * int32(i%17+1)
							}
							out, err := c.AllReduce(gen+r, grads, perBlk, 2, 10*time.Second)
							if err != nil {
								t.Errorf("victim worker %d: %v", w, err)
							}
							for i, g := range out {
								if g != 3*int32(i%17+1) {
									t.Errorf("victim worker %d: sum[%d] = %d, want %d", w, i, g, 3*(i%17+1))
									break
								}
							}
						}()
					}
					wg.Wait()
					fastest = min(fastest, time.Since(start))
				}
				return fastest
			}
			base := best(1)

			conn, err := net.Dial("udp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			stop := make(chan struct{})
			defer close(stop)
			go func() { // ~5000 pps against a 500 pps quota
				for next := uint32(0); ; time.Sleep(time.Millisecond) {
					select {
					case <-stop:
						return
					default:
					}
					for i := 0; i < 5; i, next = i+1, next+1 {
						conn.Write(buildContribution(2, next%sameBlocks, 0, 1, []int32{1, 2, 3, 4}))
					}
				}
			}()
			for deadline := time.Now().Add(2 * time.Second); s.Stats().RateShed == 0 && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond) // contested means the bucket is already shedding
			}

			contested := best(100)
			for attempt := uint16(1); contested > base+base/9 && attempt <= 4; attempt++ {
				contested = min(contested, best(100+100*attempt))
			}
			t.Logf("baseline %v, contested %v, stats %+v", base, contested, s.Stats())
			if contested > base+base/9 {
				t.Errorf("victim round %v vs baseline %v breaks the 90%% SLO", contested, base)
			}
			if ts := s.TenantStats(); ts[0].Shed+ts[0].RateShed != 0 || ts[1].RateShed == 0 {
				t.Errorf("shed not attributed to the aggressor: %+v", ts)
			}
		})
	}
}
