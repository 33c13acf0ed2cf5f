package hostagg

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestWorkerChurnRace hammers the worker registration table (behind the
// table lock) from every direction at once — clients joining and leaving
// with scatter traffic in flight, the emit path snapshotting targets, and
// idle eviction dropping whole jobs — and relies on the -race build (make verify runs this package
// race-enabled) to catch any unsynchronized access. Each goroutine runs a
// fixed number of rounds, so the test's length is a count, not a clock. It
// ends by proving the server is still coherent: a fresh pair of workers
// completes a block.
func TestWorkerChurnRace(t *testing.T) {
	s := newTestServer(t, 2, 20*time.Millisecond)
	var wg sync.WaitGroup

	// Churners: short-lived clients that register (first send), scatter a
	// few blocks, and vanish — live join/leave under traffic.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(src uint8) {
			defer wg.Done()
			for i := uint32(0); i < 50; i++ {
				c, err := NewClient(ClientConfig{ServerAddr: s.Addr().String(), JobID: 1, SrcID: src})
				if err != nil {
					continue
				}
				for b := uint32(0); b < 4; b++ {
					c.SendBlock(i*4+b, uint16(i), []int32{1, 2, 3}, false)
				}
				c.Close()
			}
		}(uint8(g % 2))
	}
	// Reader: the emit path's view of the table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			s.tab.mu.Lock()
			s.tab.targetsLocked(nil, 1)
			s.tab.mu.Unlock()
			s.Stats()
			s.TenantStats()
			runtime.Gosched()
		}
	}()
	// Evictor: the sweep's write path, dropping job registrations whole.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.tab.mu.Lock()
			s.tab.dropJobWorkersLocked(1)
			s.tab.mu.Unlock()
			runtime.Gosched()
		}
	}()
	wg.Wait()

	// The table must still work: two steady workers complete a block. The
	// churn can leave the server's socket buffer brimming, so the kernel is
	// allowed to drop these datagrams — resend until the full result lands
	// (duplicates are deduped server-side; a partial that aged out
	// mid-retry arrives flagged degraded and a churner's backlogged block may
	// still complete towards c0's registration, and both are skipped).
	c0 := newTestClient(t, s, 0)
	c1 := newTestClient(t, s, 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c0.SendBlock(1<<30, 100, []int32{5}, true); err != nil {
			t.Fatal(err)
		}
		if err := c1.SendBlock(1<<30, 100, []int32{7}, true); err != nil {
			t.Fatal(err)
		}
		wake := time.Now().Add(200 * time.Millisecond)
		for rs := recvResults(t, c0, wake); len(rs) > 0; rs = recvResults(t, c0, wake) {
			for _, r := range rs {
				if r.h.Degraded || r.h.BlockID != 1<<30 {
					continue // a partial that aged out, or a churner's block finishing late
				}
				if len(r.grads) != 1 || r.grads[0] != 12 {
					t.Fatalf("result = %+v %v, want sum 12", r.h, r.grads)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no result after churn")
		}
	}
}
