package hostagg

import (
	"encoding/binary"
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/packet"
)

func TestTransientNetErrClassification(t *testing.T) {
	for _, err := range []error{syscall.EINTR, syscall.EAGAIN, syscall.ENOBUFS,
		syscall.ECONNREFUSED, syscall.EHOSTUNREACH, syscall.ENETUNREACH} {
		if !transientNetErr(err) {
			t.Errorf("%v not classified transient", err)
		}
	}
	if transientNetErr(syscall.EBADF) || transientNetErr(errors.New("boom")) {
		t.Error("non-transient error classified transient")
	}
	if !errors.Is(errors.Join(ErrGaveUp), ErrGaveUp) {
		t.Error("ErrGaveUp does not match itself through errors.Is")
	}
}

// TestClientSurvivesFlappingServer is the flapping-socket regression test: a
// connected UDP socket surfaces ECONNREFUSED on reads and writes while its
// peer is down (the kernel reflects the ICMP port-unreachable back through
// the socket). The client must absorb those with backoff — not fail — and
// complete an allreduce once the server returns on the same port.
func TestClientSurvivesFlappingServer(t *testing.T) {
	s1 := newTestServer(t, 2, 0)
	addr := s1.Addr().String()

	mk := func(src uint8) *Client {
		c, err := NewClient(ClientConfig{
			ServerAddr: addr, JobID: 1, SrcID: src, Window: 8,
			RetransmitEvery: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c0, c1 := mk(0), mk(1)

	// Take the server down and poke the dead port: the first write lands in
	// the void and provokes the ICMP bounce, later writes collect it as
	// ECONNREFUSED, which SendBlock must retry through.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		_ = c0.SendBlock(1000+uint32(i), 1, []int32{1}, false) // errors absorbed or surfaced; either is fine here
		time.Sleep(10 * time.Millisecond)
	}

	// Server restarts on the same port; the clients' periodic retransmits
	// must re-register them and finish the reduction.
	s2, err := NewServer(ServerConfig{ListenAddr: addr, NumWorkers: 2, ReplayWindow: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })

	const n = 512
	var wg sync.WaitGroup
	sums := make([][]int32, 2)
	errs := make([]error, 2)
	for w, c := range []*Client{c0, c1} {
		w, c := w, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			grads := make([]int32, n)
			for i := range grads {
				grads[i] = int32((w + 1) * (i + 1))
			}
			sums[w], errs[w] = c.AllReduce(2, grads, 128, 2, 10*time.Second)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d after restart: %v (stats %+v)", w, err, []ClientStats{c0.Stats(), c1.Stats()}[w])
		}
	}
	for i := 0; i < n; i++ {
		if want := int32(3 * (i + 1)); sums[0][i] != want || sums[1][i] != want {
			t.Fatalf("gradient %d = %d/%d, want %d", i, sums[0][i], sums[1][i], want)
		}
	}
	st := c0.Stats()
	if st.SendRetries+st.RecvRetries == 0 {
		t.Fatalf("outage produced no retries: %+v", st)
	}
}

// TestAllReduceSurvivesInjectedFaults drives a real loopback allreduce
// through deterministic recv-drop and table-crash injection: client
// retransmits plus the server's replay cache must still converge on the
// bit-exact full sum (aging stays off so no block can complete degraded).
func TestAllReduceSurvivesInjectedFaults(t *testing.T) {
	plan := faults.NewPlan(1, faults.Config{Hostagg: faults.HostaggConfig{
		RecvDropProb: 0.3,
		CrashEvery:   9,
	}})
	s, err := NewServer(ServerConfig{
		ListenAddr: "127.0.0.1:0", NumWorkers: 2,
		ReplayWindow: 64, Faults: plan.Hostagg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	const n, blockGrads = 4096, 256
	var wg sync.WaitGroup
	sums := make([][]int32, 2)
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		w := w
		c, err := NewClient(ClientConfig{
			ServerAddr: s.Addr().String(), JobID: 1, SrcID: uint8(w), Window: 8,
			RetransmitEvery: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			grads := make([]int32, n)
			for i := range grads {
				grads[i] = int32((w + 1) * (i%113 - 56))
			}
			sums[w], errs[w] = c.AllReduce(1, grads, blockGrads, 2, 30*time.Second)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d under faults: %v", w, err)
		}
	}
	for i := 0; i < n; i++ {
		want := int32(3 * (i%113 - 56))
		if sums[0][i] != want || sums[1][i] != want {
			t.Fatalf("gradient %d = %d/%d, want %d (faults broke bit-exactness)", i, sums[0][i], sums[1][i], want)
		}
	}
	fst := plan.Stats()
	if fst.HostaggRecvDrops == 0 {
		t.Fatal("injector never dropped a contribution — the test exercised nothing")
	}
	if fst.HostaggCrashes == 0 {
		t.Fatal("injector never crashed the table")
	}
	if st := s.Stats(); st.Degraded != 0 {
		t.Fatalf("aging is off, yet %d degraded blocks", st.Degraded)
	}
}

// TestOverloadShedding: block creation beyond MaxOpenBlocks is refused and
// counted, while contributions to already-open blocks still land.
func TestOverloadShedding(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2, MaxOpenBlocks: 2})
	var out outbox
	for b := uint32(0); b < 5; b++ {
		tab.Handle(t0, buildContribution(1, b, 0, 1, []int32{int32(b)}), workerAddr(0), out.send)
	}
	if st := tab.Stats(); st.Shed != 3 || tab.Pending() != 2 {
		t.Fatalf("stats = %+v pending = %d, want 3 shed creations and 2 open", st, tab.Pending())
	}
	tab.Handle(t0, buildContribution(1, 1, 1, 1, []int32{10}), workerAddr(1), out.send)
	if st := tab.Stats(); st.Completed != 1 || st.Shed != 3 {
		t.Fatalf("stats = %+v, want the open block completed at the cap", st)
	}
}

// TestJobIdleEviction: a job that goes silent has its open blocks discarded
// without emitting and is counted once, however many blocks it held, at the
// first sweep past JobIdleTimeout and not one before.
func TestJobIdleEviction(t *testing.T) {
	const idle = 150 * time.Millisecond
	tab := newTestTable(t, ServerConfig{
		NumWorkers: 2, Timeout: 10 * time.Second, JobIdleTimeout: idle,
	})
	var out outbox
	for b := uint32(0); b < 8; b++ {
		tab.Handle(t0, buildContribution(1, b, 0, 1, []int32{1}), workerAddr(0), out.send)
	}
	tab.Sweep(t0.Add(idle), out.send) // last packet exactly idle ago: not yet past it
	if st := tab.Stats(); st.JobsExpired != 0 || tab.Pending() != 8 {
		t.Fatalf("stats = %+v pending = %d, evicted before the idle timeout passed", st, tab.Pending())
	}
	tab.Sweep(t0.Add(idle+1), out.send)
	if st := tab.Stats(); st.JobsExpired != 1 || tab.Pending() != 0 || st.Degraded != 0 || st.BlocksTimedOut != 0 {
		t.Fatalf("stats = %+v pending = %d, want one silent eviction of the whole job", st, tab.Pending())
	}
	if len(out) != 0 || len(tab.targetsLocked(nil, 1)) != 0 {
		t.Fatalf("evicted job still produced %d datagrams / kept %d registrations", len(out), len(tab.targetsLocked(nil, 1)))
	}
	// The job speaks again: it is a live job, evictable (and counted) afresh.
	tab.Handle(t0.Add(time.Second), buildContribution(1, 0, 0, 2, []int32{1}), workerAddr(0), out.send)
	tab.Sweep(t0.Add(time.Second+idle+1), out.send)
	if st := tab.Stats(); st.JobsExpired != 2 || tab.Pending() != 0 {
		t.Fatalf("stats = %+v, want the returned job evicted a second time", st)
	}
}

// TestJobIdleTimeoutRequiresAging: the constructor rejects JobIdleTimeout
// without Timeout, since the aging sweep performs the eviction.
func TestJobIdleTimeoutRequiresAging(t *testing.T) {
	_, err := NewServer(ServerConfig{ListenAddr: "127.0.0.1:0", NumWorkers: 2, JobIdleTimeout: time.Second})
	if err == nil {
		t.Fatal("JobIdleTimeout without Timeout accepted")
	}
}

// TestResultReplayOnRetransmit: a retransmit for an already-served block is
// answered from the replay cache — to the sender only — instead of re-opening
// the block and eventually producing a bogus one-source result.
func TestResultReplayOnRetransmit(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2, ReplayWindow: 8})
	var out outbox
	tab.Handle(t0, buildContribution(1, 0, 0, 1, []int32{5}), workerAddr(0), out.send)
	tab.Handle(t0, buildContribution(1, 0, 1, 1, []int32{7}), workerAddr(1), out.send)
	first := out.take()
	if len(first) != 2 || first[0].grads[0] != 12 || first[1].grads[0] != 12 {
		t.Fatalf("first serve = %+v, want sum 12 to both workers", first)
	}
	// Worker 0's result "was lost"; it retransmits and must get the same
	// full sum back while worker 1 sees nothing new.
	tab.Handle(t0.Add(time.Millisecond), buildContribution(1, 0, 0, 1, []int32{5}), workerAddr(0), out.send)
	replayed := out.take()
	if len(replayed) != 1 || replayed[0].to.Port != workerAddr(0).Port {
		t.Fatalf("replay = %+v, want one datagram, to the retransmitting worker only", replayed)
	}
	if m := replayed[0]; m.grads[0] != 12 || m.hdr.SrcCnt != 2 || m.hdr.Degraded {
		t.Fatalf("replayed result = %+v, want full sum 12 from 2 sources", m)
	}
	if st := tab.Stats(); st.ResultReplays != 1 || tab.Pending() != 0 {
		t.Fatalf("stats = %+v pending = %d: retransmit re-opened the block", st, tab.Pending())
	}
	// A block that aged out is served too, and replays as the same degraded
	// partial.
	aging := newTestTable(t, ServerConfig{NumWorkers: 2, ReplayWindow: 8, Timeout: 40 * time.Millisecond})
	aging.Handle(t0, buildContribution(1, 0, 0, 1, []int32{5}), workerAddr(0), out.send)
	aging.Sweep(t0.Add(10*time.Millisecond), out.send)
	aging.Sweep(t0.Add(40*time.Millisecond), out.send)
	aging.Handle(t0.Add(50*time.Millisecond), buildContribution(1, 0, 0, 1, []int32{5}), workerAddr(0), out.send)
	if got := out.take(); len(got) != 2 || !got[1].hdr.Degraded || got[1].grads[0] != 5 || got[1].hdr.SrcCnt != 1 {
		t.Fatalf("sent = %+v, want the aged result and then its degraded replay", got)
	}
}

// TestReplayWindowBoundsTable: ReplayWindow caps the served results the whole
// table retains. With a window of two and blocks 0–3 served in turn, block
// 3's result still replays, while block 0's was evicted: its retransmit opens
// a fresh block and nothing is sent.
func TestReplayWindowBoundsTable(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 2, ReplayWindow: 2})
	var out outbox
	for b := uint32(0); b < 4; b++ {
		tab.Handle(t0, buildContribution(1, b, 0, 1, []int32{int32(b)}), workerAddr(0), out.send)
		tab.Handle(t0, buildContribution(1, b, 1, 1, []int32{10}), workerAddr(1), out.send)
	}
	if st := tab.Stats(); st.Completed != 4 || len(out.take()) != 8 {
		t.Fatalf("stats = %+v, want blocks 0-3 served to both workers", st)
	}
	tab.Handle(t0, buildContribution(1, 3, 0, 1, []int32{3}), workerAddr(0), out.send)
	if got := out.take(); len(got) != 1 || got[0].hdr.BlockID != 3 || got[0].grads[0] != 13 {
		t.Fatalf("sent = %+v, want block 3's sum 13 replayed to the sender", got)
	}
	tab.Handle(t0, buildContribution(1, 0, 0, 1, []int32{0}), workerAddr(0), out.send)
	if st := tab.Stats(); len(out) != 0 || st.ResultReplays != 1 || tab.Pending() != 1 {
		t.Fatalf("stats = %+v pending = %d sent = %d, want block 0 evicted from the window and re-opened",
			st, tab.Pending(), len(out))
	}
}

// buildContribution marshals one contribution payload as a client would.
func buildContribution(job uint8, block uint32, src uint8, gen uint16, grads []int32) []byte {
	return AppendBlock(nil, packet.TrioML{JobID: job, BlockID: block, SrcID: src, GenID: gen}, grads)
}

// TestHandleAddZeroAlloc pins the aggregation fast path — a contribution
// landing in an open block — at zero allocations, send argument included: the
// wire bytes are summed in place and no per-packet vector is parsed. The mask
// bit is rewound between runs (alloc-free) so every iteration takes the add
// path.
func TestHandleAddZeroAlloc(t *testing.T) {
	tab := newTestTable(t, ServerConfig{NumWorkers: 3})
	grads := make([]int32, packet.MaxGradientsPerPacket)
	from := workerAddr(1)
	tab.Handle(t0, buildContribution(1, 0, 0, 1, grads), workerAddr(0), discard)
	add := buildContribution(1, 0, 1, 1, grads)
	rewind := addPathRewinder(tab, key(1, 0), 1)
	if n := testing.AllocsPerRun(1000, func() {
		tab.Handle(t0, add, from, discard)
		rewind()
	}); n != 0 {
		t.Fatalf("aggregation fast path allocated %.2f times per packet", n)
	}
}

// TestHandleCompleteAllocs pins a block's whole life, two contributions that
// open, add, complete and emit it, with the replay cache on (it keeps the
// result datagram) and off. Its one allocation is the buffer the lanes are
// summed in, cut from a chunk shared by 31 full blocks, so AllocsPerRun's
// whole-number mean reads 0. A replay of a served block, sent as cached,
// allocates nothing.
func TestHandleCompleteAllocs(t *testing.T) {
	for _, window := range []int{0, 64} {
		tab := newTestTable(t, ServerConfig{NumWorkers: 2, ReplayWindow: window})
		grads := make([]int32, packet.MaxGradientsPerPacket)
		c0, c1 := buildContribution(1, 0, 0, 1, grads), buildContribution(1, 0, 1, 1, grads)
		from0, from1 := workerAddr(0), workerAddr(1)
		blk := uint32(0)
		block := func() {
			blk++
			binary.BigEndian.PutUint32(c0[1:], blk) // block_id follows the 8-bit job_id
			binary.BigEndian.PutUint32(c1[1:], blk)
			tab.Handle(t0, c0, from0, discard)
			tab.Handle(t0, c1, from1, discard)
		}
		for range 10 * 64 {
			block()
		}
		if n := testing.AllocsPerRun(500, block); n != 0 {
			t.Errorf("ReplayWindow %d: a completing block allocated %.2f times", window, n)
		}
		if st := tab.Stats(); st.Completed != uint64(blk) || st.Packets != uint64(2*blk) {
			t.Fatalf("ReplayWindow %d: stats %+v after %d blocks", window, st, blk)
		}
		if window == 0 {
			continue
		}
		if n := testing.AllocsPerRun(500, func() { tab.Handle(t0, c0, from0, discard) }); n != 0 {
			t.Errorf("a replay allocated %.2f times", n)
		}
		if st := tab.Stats(); st.ResultReplays != 501 {
			t.Fatalf("stats %+v: want 501 replays", st)
		}
	}
}

// addPathRewinder returns a function that takes source src back out of the
// open block k, so the next identical contribution is an add, not a duplicate.
func addPathRewinder(tab *Table, k uint64, src uint8) func() {
	return func() {
		tab.mu.Lock()
		b := tab.blocks[k]
		b.rcvdMask.Clear(src)
		b.rcvdCnt--
		tab.mu.Unlock()
	}
}

// BenchmarkHandleAdd measures the same path under the benchmark harness.
func BenchmarkHandleAdd(b *testing.B) {
	tab := newTestTable(b, ServerConfig{NumWorkers: 3})
	grads := make([]int32, packet.MaxGradientsPerPacket)
	from := workerAddr(1)
	tab.Handle(t0, buildContribution(1, 0, 0, 1, grads), workerAddr(0), discard)
	add := buildContribution(1, 0, 1, 1, grads)
	rewind := addPathRewinder(tab, key(1, 0), 1)
	b.SetBytes(int64(len(add)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Handle(t0, add, from, discard)
		rewind()
	}
}
