package hostagg

// Benchmarks for the table's hot path. The scatter workload spreads each
// client's traffic over distinct block ids (every packet completes a block:
// map insert, sum, delete); the hot-block workload makes every client
// collide on one (job, block) key. Every goroutine contends for the one
// table lock. Run:
//
//	go test -bench=Table -cpu 1,4,8 ./internal/hostagg/

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/packet"
)

var benchBlockSeq atomic.Uint32

// benchPayloads prebuilds count single-gradient packets with distinct
// block ids, so the measured loop is only the server's handle path.
func benchPayloads(count int, hot bool) [][]byte {
	payloads := make([][]byte, count)
	for i := range payloads {
		blockID := uint32(0)
		if !hot {
			blockID = benchBlockSeq.Add(1)
		}
		payloads[i] = AppendBlock(nil, packet.TrioML{JobID: 1, BlockID: blockID, GenID: 1}, []int32{1})
	}
	return payloads
}

// benchHandle measures packet-handling throughput of a bare table: each
// benchmark goroutine plays one receive worker calling Handle. With
// numWorkers == 1 every packet completes a block and hands a result to send;
// with numWorkers == 2 and a single source no block ever completes,
// isolating the block map and its lock.
func benchHandle(b *testing.B, numWorkers int, hot bool) {
	tab := newTestTable(b, ServerConfig{NumWorkers: numWorkers})
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000}
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		payloads := benchPayloads(1024, hot)
		i := 0
		for pb.Next() {
			tab.Handle(t0, payloads[i], from, discard)
			i++
			if i == len(payloads) {
				i = 0
			}
		}
	})
	b.StopTimer()
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(b.N)/el, "pkts/s")
	}
}

func BenchmarkTableScatter(b *testing.B) { benchHandle(b, 1, false) }

func BenchmarkTableHotBlock(b *testing.B) { benchHandle(b, 1, true) }

// BenchmarkTableLookup isolates the block table: blocks never complete (two
// expected workers, one source), so the loop is parse → table lock → map
// access.
func BenchmarkTableLookup(b *testing.B) { benchHandle(b, 2, false) }

// BenchmarkAllReduceUDP is the end-to-end cost over real loopback sockets:
// multiple clients AllReduce a vector through the server.
func BenchmarkAllReduceUDP(b *testing.B) {
	const workers = 2
	const n = 8192
	s, err := NewServer(ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	clients := make([]*Client, workers)
	for w := range clients {
		clients[w], err = NewClient(ClientConfig{
			ServerAddr: s.Addr().String(), JobID: 1, SrcID: uint8(w), Window: 32,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer clients[w].Close()
	}
	grads := make([]int32, n)
	for i := range grads {
		grads[i] = int32(i % 7)
	}
	b.SetBytes(4 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := uint16(i + 1)
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(c *Client) {
				_, err := c.AllReduce(gen, grads, 1024, workers, 30*time.Second)
				errs <- err
			}(clients[w])
		}
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
}
