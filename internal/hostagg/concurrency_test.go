package hostagg

import (
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// TestMismatchedContributionRefused: inside a generation every source agrees
// on the block's size. A contribution with more or fewer gradients than the
// open block is refused and counted: it neither grows the sums (one source
// could inflate every worker's result and its tenant's byte charge) nor
// counts its source, which may still contribute at the right size.
func TestMismatchedContributionRefused(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2})
	var out outbox
	tab.Handle(t0, buildContribution(1, 3, 0, 1, []int32{5, 6}), workerAddr(0), out.send)
	tab.Handle(t0, buildContribution(1, 3, 1, 1, []int32{1, 2, 3}), workerAddr(1), out.send)
	tab.Handle(t0, buildContribution(1, 3, 1, 1, []int32{1}), workerAddr(1), out.send)
	if st := tab.Stats(); len(out) != 0 || st.GradMismatch != 2 || tab.Pending() != 1 {
		t.Fatalf("sent %d, stats %+v, pending %d: want both mismatches refused and the block open", len(out), st, tab.Pending())
	}
	if b := tab.blocks[key(1, 3)]; len(b.buf) != packet.TrioMLHeaderLen+8 || b.bytes != 8 || b.rcvdCnt != 1 {
		t.Fatalf("block = %d buffer bytes, %d bytes, %d sources: a refusal touched it", len(b.buf), b.bytes, b.rcvdCnt)
	}
	tab.Handle(t0, buildContribution(1, 3, 1, 1, []int32{1, 2}), workerAddr(1), out.send)
	if len(out) != 2 || !slices.Equal(out[0].grads, []int32{6, 8}) {
		t.Fatalf("sent %+v, want the sum [6 8] to both workers", out)
	}
}

// TestTableHammer is the -race regression for the table lock: 16
// goroutines drive Handle at synthetic instants — half their packets collide
// on one hot key, half open blocks of their own — while two goroutines read
// Stats and Pending and one sweeps. No socket and no wall clock: the end
// state is exact. The hot key only ever hears from source 0, so it opens
// once and every later packet for it is a duplicate; every other scattered
// block also gets source 1 right away and completes. Two sweeps at
// t0 + 2·Timeout then age out whatever is left, so every block opened is
// accounted for as completed or degraded.
func TestTableHammer(t *testing.T) {
	const timeout = 20 * time.Millisecond
	tab := newTestTable(t, ServerConfig{NumWorkers: 2, Timeout: timeout})
	var sends atomic.Int64
	send := func([]byte, *net.UDPAddr) { sends.Add(1) }

	const goroutines = 16
	const packetsPer = 500 // half hot, half scattered
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < packetsPer; i++ {
				now := t0.Add(time.Duration(i) * time.Microsecond)
				if i%2 == 0 {
					tab.Handle(now, buildContribution(1, 0, 0, 1, []int32{1}), workerAddr(0), send)
					continue
				}
				block := uint32(1 + g*packetsPer + i)
				tab.Handle(now, buildContribution(1, block, 0, 1, []int32{1}), workerAddr(0), send)
				if i%4 == 1 {
					tab.Handle(now, buildContribution(1, block, 1, 1, []int32{1}), workerAddr(1), send)
				}
			}
		}()
	}
	stop := make(chan struct{})
	var others sync.WaitGroup
	for r := 0; r < 2; r++ {
		others.Add(1)
		go func() {
			defer others.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = tab.Stats()
				_ = tab.Pending()
				runtime.Gosched()
			}
		}()
	}
	others.Add(1)
	go func() { // sweeps inside the run's instants: REF flags clear, nothing ages yet
		defer others.Done()
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			tab.Sweep(t0.Add(time.Duration(j%packetsPer)*time.Microsecond), send)
		}
	}()
	wg.Wait()
	close(stop)
	others.Wait()

	const scattered = goroutines * packetsPer / 2
	const completed = scattered / 2
	const opened = scattered + 1 // the hot key opens once
	st := tab.Stats()
	if want := goroutines*packetsPer + completed; int(st.Packets) != want {
		t.Fatalf("packets = %d, want %d (lost under contention)", st.Packets, want)
	}
	if st.Completed != completed || st.Duplicates != goroutines*packetsPer/2-1 || st.Degraded != 0 {
		t.Fatalf("stats = %+v, want %d completed, %d duplicates, none aged during the run",
			st, completed, goroutines*packetsPer/2-1)
	}
	tab.Sweep(t0.Add(2*timeout), send)
	tab.Sweep(t0.Add(2*timeout), send)
	st = tab.Stats()
	if tab.Pending() != 0 || st.Completed+st.Degraded != opened {
		t.Fatalf("pending = %d, stats = %+v, want every one of %d blocks completed or degraded",
			tab.Pending(), st, opened)
	}
	if got := sends.Load(); got != 2*opened {
		t.Fatalf("sent %d datagrams, want %d: one result per block to each of the 2 workers", got, 2*opened)
	}
}

// TestAllReduceThreeWorkers is an end-to-end check that three clients
// streaming at once into the server's one socket get bit-exact sums over
// real sockets.
func TestAllReduceThreeWorkers(t *testing.T) {
	const workers = 3
	s, err := NewServer(ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: workers,
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
