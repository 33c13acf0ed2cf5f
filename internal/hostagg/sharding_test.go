package hostagg

import (
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/packet"
)

// TestGenRestartWithLargerBlock: a generation restart must adopt the new
// packet's vector exactly, even when the new generation carries more
// gradients than the old block (the old code truncated with copy).
func TestGenRestartWithLargerBlock(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2})
	var out outbox
	final := func(p []byte) []byte { // set the header's final bit
		var h packet.TrioML
		h.Unmarshal(p)
		h.Final = true
		h.MarshalTo(p)
		return p
	}
	// Gen 1 opens block 7 with 2 gradients; gen 2 restarts it with 4.
	tab.Handle(t0, buildContribution(1, 7, 0, 1, []int32{1, 2}), workerAddr(0), out.send)
	tab.Handle(t0, final(buildContribution(1, 7, 0, 2, []int32{10, 20, 30, 40})), workerAddr(0), out.send)
	tab.Handle(t0, final(buildContribution(1, 7, 1, 2, []int32{1, 1, 1, 1})), workerAddr(1), out.send)
	if len(out) != 2 {
		t.Fatalf("sent %d datagrams, want the result to both workers", len(out))
	}
	r := out[0]
	if r.hdr.GenID != 2 || !r.hdr.Final {
		t.Fatalf("result header = %+v, want gen 2, final", r.hdr)
	}
	if want := []int32{11, 21, 31, 41}; !slices.Equal(r.grads, want) {
		t.Fatalf("grads = %v, want %v (restart truncated?)", r.grads, want)
	}
	if st := tab.Stats(); st.GenRestarts != 1 {
		t.Fatalf("stats = %+v, want 1 gen restart", st)
	}
}

// TestOversizedContributionGrowsSums: a contribution with more gradients
// than the open block must grow the sum vector instead of dropping the
// excess, and the mismatch must be counted.
func TestOversizedContributionGrowsSums(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2})
	var out outbox
	tab.Handle(t0, buildContribution(1, 3, 0, 1, []int32{5}), workerAddr(0), out.send)
	tab.Handle(t0, buildContribution(1, 3, 1, 1, []int32{1, 2, 3}), workerAddr(1), out.send)
	if len(out) != 2 {
		t.Fatalf("sent %d datagrams, want the result to both workers", len(out))
	}
	if want := []int32{6, 2, 3}; !slices.Equal(out[0].grads, want) {
		t.Fatalf("grads = %v, want %v (excess dropped?)", out[0].grads, want)
	}
	if st := tab.Stats(); st.GradMismatch != 1 {
		t.Fatalf("stats = %+v, want 1 grad mismatch", st)
	}
}

// TestAllReduceFailsWhenTransportDies: if the client's receive loop dies
// mid-AllReduce, AllReduce must return an error promptly — the old code
// closed the results channel and span on zero-value Results.
func TestAllReduceFailsWhenTransportDies(t *testing.T) {
	s := newTestServer(t, 2, 0) // 2 workers, only 1 contributes: never completes
	c := newTestClient(t, s, 0)
	errCh := make(chan error, 1)
	go func() {
		_, err := c.AllReduce(5, make([]int32, 4096), 1024, 2, 30*time.Second)
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond)
	c.conn.Close() // transport dies under the client
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("AllReduce returned nil after transport death")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AllReduce did not fail after transport death (stuck until timeout)")
	}
	if c.Err() == nil {
		t.Fatal("client Err() = nil after receive loop death")
	}
}

// TestDroppedResultsCounted: results arriving while the application is not
// draining must be dropped (UDP semantics) but accounted for.
func TestDroppedResultsCounted(t *testing.T) {
	s := newTestServer(t, 1, 0)
	c, err := NewClient(ClientConfig{ServerAddr: s.Addr().String(), JobID: 1, SrcID: 0, ResultBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const blocks = 8
	for i := 0; i < blocks; i++ {
		if err := c.SendBlock(uint32(i), 1, []int32{1}, false); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		if st.Delivered+st.Dropped == blocks {
			if st.Dropped == 0 {
				t.Fatalf("stats = %+v, want drops with a 1-slot buffer", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want %d results accounted", st, blocks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardedHammer drives one hot block key and a scatter of cold keys
// from many goroutines across shards, with the sweeper running and stats
// readers racing — the -race regression for the sharded hot path.
func TestShardedHammer(t *testing.T) {
	const workers = 16
	s, err := NewServer(ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: workers,
		Timeout: 20 * time.Millisecond, Shards: 8, RecvWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000}
	const goroutines = 16
	const packetsPer = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			send := s.sender(s.conns[0])
			payload := make([]byte, packet.TrioMLHeaderLen+4)
			for i := 0; i < packetsPer; i++ {
				hdr := packet.TrioML{
					JobID: 1, SrcID: uint8((g + i) % workers), GenID: 1, GradCnt: 1,
				}
				if i%2 == 0 {
					hdr.BlockID = 0 // hot key: every goroutine collides here
				} else {
					hdr.BlockID = uint32(g*packetsPer + i) // scatter
				}
				hdr.MarshalTo(payload)
				packet.PutGradients(payload[packet.TrioMLHeaderLen:], []int32{1})
				s.tab.Handle(time.Now(), payload, from, send)
			}
		}()
	}
	// Racing readers.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Stats()
				_ = s.Pending()
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	total := goroutines * packetsPer
	if got := int(st.Packets); got != total {
		t.Fatalf("packets = %d, want %d (lost under contention)", got, total)
	}
	// The sweeper must eventually age out every straggling block.
	deadline := time.Now().Add(10 * time.Second)
	for s.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d after timeout, stats = %+v", s.Pending(), s.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShardConfigDefaults checks shard rounding and the reuseport fan-out
// plumbing.
func TestShardConfigDefaults(t *testing.T) {
	s, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", NumWorkers: 2, Shards: 5, RecvWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if s.NumShards() != 8 {
		t.Fatalf("shards = %d, want 8 (5 rounded up)", s.NumShards())
	}
	if reusePortSupported && s.NumSockets() != 3 {
		t.Fatalf("sockets = %d, want 3 with SO_REUSEPORT", s.NumSockets())
	}
	if _, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", NumWorkers: 2, Shards: 2048}); err == nil {
		t.Fatal("2048 shards accepted")
	}
	if _, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", NumWorkers: 2, RecvWorkers: 65}); err == nil {
		t.Fatal("65 recv workers accepted")
	}
}

// TestAllReduceAcrossShards is an end-to-end check that sharding and
// SO_REUSEPORT fan-out preserve protocol semantics over real sockets.
func TestAllReduceAcrossShards(t *testing.T) {
	const workers = 3
	s, err := NewServer(ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: workers, Shards: 8, RecvWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	const n = 5000
	var wg sync.WaitGroup
	sums := make([][]int32, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		c := newTestClient(t, s, uint8(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			grads := make([]int32, n)
			for i := range grads {
				grads[i] = int32((w + 1) * (i%89 - 44))
			}
			sums[w], errs[w] = c.AllReduce(1, grads, 512, workers, 10*time.Second)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for i := 0; i < n; i++ {
		want := int32(6 * (i%89 - 44))
		for w := 0; w < workers; w++ {
			if sums[w][i] != want {
				t.Fatalf("worker %d gradient %d = %d, want %d", w, i, sums[w][i], want)
			}
		}
	}
}
