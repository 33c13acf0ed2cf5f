package hostagg

import (
	"errors"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/packet"
)

// result is one result datagram, decoded.
type result struct {
	h     packet.TrioML
	grads []int32
}

// recvResults reads buffers through c.read until one holds a result and
// returns every result in it; none if nothing arrives by wake.
func recvResults(t *testing.T, c *Client, wake time.Time) []result {
	t.Helper()
	for {
		buf, seg, err := c.read(wake)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return nil
		}
		if err != nil {
			t.Fatal(err)
		}
		var rs []result
		for len(buf) > 0 {
			var d []byte
			d, buf = nextSegment(buf, seg)
			var r result
			rest, err := r.h.Unmarshal(d)
			if err != nil || r.h.SrcID != packet.ResultSrcID {
				continue
			}
			if r.grads, err = packet.Gradients(rest, int(r.h.GradCnt)); err == nil {
				rs = append(rs, r)
			}
		}
		if len(rs) > 0 {
			return rs
		}
	}
}

// fakeServer is a bare UDP socket standing in for the aggregation server: a
// test scripts every datagram the client reads.
type fakeServer struct {
	conn *net.UDPConn
	buf  []byte
}

func newFakeServer(t *testing.T) *fakeServer {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &fakeServer{conn: conn, buf: make([]byte, 65536)}
}

func (f *fakeServer) client(t *testing.T, cfg ClientConfig) *Client {
	t.Helper()
	cfg.ServerAddr, cfg.JobID = f.conn.LocalAddr().String(), 1
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// recv reads one contribution (the socket has no UDP_GRO, so one datagram)
// and returns its header and sender.
func (f *fakeServer) recv() (packet.TrioML, *net.UDPAddr, error) {
	var h packet.TrioML
	n, from, err := f.conn.ReadFromUDP(f.buf)
	if err == nil {
		_, err = h.Unmarshal(f.buf[:n])
	}
	return h, from, err
}

// wire is a Reduce's way out in a test: room hands out fresh buffers and
// blocks reads back what was sent.
type wire [][]byte

func (w *wire) room(n int) ([]byte, error) {
	p := make([]byte, n)
	*w = append(*w, p)
	return p, nil
}

// blocks returns the block ids sent since the last call.
func (w *wire) blocks(t *testing.T) []uint32 {
	t.Helper()
	ids := []uint32{}
	for _, p := range *w {
		var h packet.TrioML
		if _, err := h.Unmarshal(p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, h.BlockID)
	}
	*w = nil
	return ids
}

// resultFor is the server's result for block, the sum of srcCnt sources.
func resultFor(block uint32, gen uint16, srcCnt uint8, degraded bool, grads []int32) []byte {
	return AppendBlock(nil, packet.TrioML{JobID: 1, BlockID: block, SrcID: packet.ResultSrcID, GenID: gen,
		SrcCnt: srcCnt, Degraded: degraded}, grads)
}

// nack is the server's retry-after NACK refusing block, suggesting millis.
func nack(block uint32, gen uint16, millis uint32) []byte {
	return packet.BuildRetryAfter(packet.TrioML{JobID: 1, BlockID: block, GenID: gen}, packet.RetryReasonOverload, millis)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllReduceTakesResultForUnsentBlock: the server sends every result to
// all of a job's workers, so a block may be answered before this client sent
// it. That result is the block's answer, the block is never sent, and — not
// having been sent — it frees no window slot. Block 3 is answered (degraded,
// one source of two) before blocks 0 and 1, along with a duplicate and a
// result of another generation, which count as dropped.
func TestAllReduceTakesResultForUnsentBlock(t *testing.T) {
	grads := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	block := func(b int) []int32 { return grads[2*b : 2*b+2] }
	twice := func(b int) []int32 { return []int32{2 * block(b)[0], 2 * block(b)[1]} }
	var w wire
	r := NewReduce(t0, ClientConfig{JobID: 1, Window: 2}, 1, grads, 2, 2, time.Second)
	must(t, r.Refill(w.room))
	if ids := w.blocks(t); !slices.Equal(ids, []uint32{0, 1}) {
		t.Fatalf("first window sent blocks %v, want 0 1", ids)
	}
	must(t, r.Receive(t0, resultFor(3, 1, 1, true, block(3))))
	must(t, r.Receive(t0, resultFor(3, 1, 1, true, block(3))))  // duplicate
	must(t, r.Receive(t0, resultFor(2, 0, 2, false, twice(2)))) // another generation
	must(t, r.Refill(w.room))
	if ids := w.blocks(t); len(ids) != 0 {
		t.Fatalf("refill sent blocks %v with 0 and 1 in flight: an unsent block's answer freed a slot", ids)
	}
	must(t, r.Receive(t0, resultFor(0, 1, 2, false, twice(0))))
	must(t, r.Receive(t0, resultFor(1, 1, 2, false, twice(1))))
	must(t, r.Refill(w.room))
	if ids := w.blocks(t); !slices.Equal(ids, []uint32{2}) {
		t.Fatalf("refill sent blocks %v, want 2 alone: block 3 was answered before it was sent", ids)
	}
	must(t, r.Receive(t0, resultFor(2, 1, 2, false, twice(2))))
	if !r.Done() {
		t.Fatal("not done with every block answered")
	}
	for i, g := range r.Sum() {
		if g != 2*grads[i] {
			t.Fatalf("sum = %v, want every gradient doubled (block 3 rescaled from one source to two)", r.Sum())
		}
	}
	if st := r.Stats(); st.Delivered != 4 || st.Dropped != 2 {
		t.Fatalf("stats = %+v, want 4 delivered, 2 dropped (the duplicate and the other generation)", st)
	}
}

// TestClientNackBurstBacksOffOnce: the server refuses a whole window, one
// NACK per block. A NACK read during a back-off refuses a block the honoured
// one already backed off for, so the burst costs one back-off rather than a
// streak that ends in ErrShed; the results, read during the back-off, are
// taken.
func TestClientNackBurstBacksOffOnce(t *testing.T) {
	const n = 16
	grads := make([]int32, n)
	for i := range grads {
		grads[i] = int32(i + 1)
	}
	var w wire
	r := NewReduce(t0, ClientConfig{JobID: 1, Window: n}, 1, grads, 1, 1, time.Second)
	must(t, r.Refill(w.room))
	if ids := w.blocks(t); len(ids) != n {
		t.Fatalf("first window sent %d blocks, want %d", len(ids), n)
	}
	now := t0.Add(time.Millisecond)
	for b := range uint32(n) {
		must(t, r.Receive(now, nack(b, 1, 1)))
	}
	for b := range uint32(n) {
		must(t, r.Receive(now, resultFor(b, 1, 1, false, grads[b:b+1])))
	}
	if !r.Done() || !slices.Equal(r.Sum(), grads) {
		t.Fatalf("done = %v, sum = %v, want %v", r.Done(), r.Sum(), grads)
	}
	if st := r.Stats(); st.Nacked != n || st.Backoffs != 1 {
		t.Fatalf("stats = %+v, want %d NACKs read and exactly 1 back-off", st, n)
	}
}

// TestAllReduceRetransmitsAtExactPeriod: every sent but unanswered block is
// resent at exactly start + RetransmitEvery, not a nanosecond earlier, and
// the next resend is one period after that.
func TestAllReduceRetransmitsAtExactPeriod(t *testing.T) {
	const every = 20 * time.Millisecond
	var w wire
	r := NewReduce(t0, ClientConfig{JobID: 1, Window: 4, RetransmitEvery: every}, 1, make([]int32, 4), 1, 2, time.Second)
	must(t, r.Refill(w.room))
	w.blocks(t)
	must(t, r.Receive(t0.Add(time.Millisecond), resultFor(1, 1, 2, false, []int32{0})))
	if got := r.Wake(); !got.Equal(t0.Add(every)) {
		t.Fatalf("wake at %v after start, want %v", got.Sub(t0), every)
	}
	must(t, r.Expire(t0.Add(every-1), w.room))
	if ids := w.blocks(t); len(ids) != 0 {
		t.Fatalf("resent %v a nanosecond before the period", ids)
	}
	must(t, r.Expire(t0.Add(every), w.room))
	if ids := w.blocks(t); !slices.Equal(ids, []uint32{0, 2, 3}) {
		t.Fatalf("resent %v at the period, want the unanswered 0 2 3", ids)
	}
	if st := r.Stats(); st.Retransmits != 3 {
		t.Fatalf("retransmits = %d, want 3", st.Retransmits)
	}
	if got := r.Wake(); !got.Equal(t0.Add(2 * every)) {
		t.Fatalf("next wake at %v after start, want %v", got.Sub(t0), 2*every)
	}
}

// TestAllReduceTimesOutAtDeadline: resends every 20 ms, a 50 ms timeout. The
// wakes are 20, 40 and then the deadline at 50 ms, where the call fails, and
// not a nanosecond earlier.
func TestAllReduceTimesOutAtDeadline(t *testing.T) {
	const every, timeout = 20 * time.Millisecond, 50 * time.Millisecond
	var w wire
	r := NewReduce(t0, ClientConfig{JobID: 1, RetransmitEvery: every}, 1, make([]int32, 2), 1, 2, timeout)
	must(t, r.Refill(w.room))
	for _, want := range []time.Duration{every, 2 * every, timeout} {
		if got := r.Wake().Sub(t0); got != want {
			t.Fatalf("wake at %v after start, want %v", got, want)
		}
		must(t, r.Expire(t0.Add(want-1), w.room))
		if want < timeout {
			must(t, r.Expire(t0.Add(want), w.room))
		}
	}
	err := r.Expire(t0.Add(timeout), w.room)
	if err == nil || !strings.Contains(err.Error(), "timed out with 0/2 blocks") {
		t.Fatalf("Expire at the deadline: err = %v, want the timeout", err)
	}
	if st := r.Stats(); st.Retransmits != 4 {
		t.Fatalf("retransmits = %d, want 2 blocks at 20 ms and 40 ms", st.Retransmits)
	}
}

// TestAllReduceNackBackOffEndsExactly: a NACK suggesting 5 ms at t1 keeps
// the window quiet until exactly t1 + 5 ms. A result read in between is
// taken but frees no block onto the wire; at the end of the back-off the
// refused block is resent at once and the window refilled, with no wait for
// the retransmit period.
func TestAllReduceNackBackOffEndsExactly(t *testing.T) {
	const backoff = 5 * time.Millisecond
	var w wire
	r := NewReduce(t0, ClientConfig{JobID: 1, Window: 2, RetransmitEvery: time.Second}, 1, make([]int32, 3), 1, 1, 10*time.Second)
	must(t, r.Refill(w.room))
	w.blocks(t)
	t1 := t0.Add(3 * time.Millisecond)
	must(t, r.Receive(t1, nack(0, 1, uint32(backoff/time.Millisecond))))
	if got := r.Wake(); !got.Equal(t1.Add(backoff)) {
		t.Fatalf("wake at t1%+v, want t1+%v", got.Sub(t1), backoff)
	}
	must(t, r.Receive(t1.Add(time.Millisecond), resultFor(1, 1, 1, false, []int32{0})))
	must(t, r.Refill(w.room))
	must(t, r.Expire(t1.Add(backoff-1), w.room))
	if ids := w.blocks(t); len(ids) != 0 {
		t.Fatalf("sent %v during the back-off", ids)
	}
	must(t, r.Expire(t1.Add(backoff), w.room))
	if ids := w.blocks(t); !slices.Equal(ids, []uint32{0, 2}) {
		t.Fatalf("sent %v when the back-off ended, want refused block 0 then block 2", ids)
	}
	if st := r.Stats(); st.Delivered != 1 || st.Backoffs != 1 || st.Retransmits != 1 {
		t.Fatalf("stats = %+v, want 1 delivered, 1 back-off, 1 retransmit", st)
	}
	if got := r.Wake(); !got.Equal(t1.Add(backoff + time.Second)) {
		t.Fatalf("next wake at t1%+v, want one retransmit period after the back-off", got.Sub(t1))
	}
}

// TestAllReduceShedAfterRetryBudget: a server that answers every send with a
// NACK and nothing else costs maxRetries back-offs — each retryCap long when
// the NACK suggests no wait — and the call fails with ErrShed on NACK
// maxRetries+1.
func TestAllReduceShedAfterRetryBudget(t *testing.T) {
	const retries = maxRetries
	var w wire
	r := NewReduce(t0, ClientConfig{JobID: 1}, 1, make([]int32, 1), 1, 1, time.Minute)
	must(t, r.Refill(w.room))
	now := t0
	for i := 0; i < retries; i++ {
		w.blocks(t)
		must(t, r.Receive(now, nack(0, 1, 0)))
		if got := r.Wake(); !got.Equal(now.Add(retryCap)) {
			t.Fatalf("NACK %d: wake %v after it, want retryCap %v", i+1, got.Sub(now), retryCap)
		}
		now = r.Wake()
		must(t, r.Expire(now, w.room))
		if ids := w.blocks(t); !slices.Equal(ids, []uint32{0}) {
			t.Fatalf("back-off %d ended sending %v, want block 0", i+1, ids)
		}
	}
	if err := r.Receive(now, nack(0, 1, 0)); !errors.Is(err, ErrShed) {
		t.Fatalf("NACK %d: err = %v, want ErrShed", retries+1, err)
	}
	if st := r.Stats(); st.Nacked != retries+1 || st.Backoffs != retries {
		t.Fatalf("stats = %+v, want %d NACKs and %d back-offs", st, retries+1, retries)
	}
}

// TestReduceDropsResultOfWrongLength: a result whose gradient count is not
// its block's length, short or long, is dropped and counted and leaves the
// block unanswered, so the right results still complete the exact sum.
func TestReduceDropsResultOfWrongLength(t *testing.T) {
	grads := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // blocks of 4, 4 and 2
	for _, tc := range []struct {
		name      string
		block, gc int
	}{
		{"short", 0, 1},
		{"long", 0, 5},
		{"short last", 2, 1},
		{"long last", 2, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w wire
			r := NewReduce(t0, ClientConfig{JobID: 1}, 1, grads, 4, 1, time.Minute)
			must(t, r.Refill(w.room))
			bad := make([]int32, tc.gc)
			for i := range bad {
				bad[i] = 10
			}
			must(t, r.Receive(t0, resultFor(uint32(tc.block), 1, 1, false, bad)))
			if st := r.Stats(); st.Dropped != 1 || st.Delivered != 0 || r.Done() {
				t.Fatalf("after a %d-gradient result for block %d: stats %+v, done %v", tc.gc, tc.block, st, r.Done())
			}
			for b, lo := range []int{0, 4, 8} {
				must(t, r.Receive(t0, resultFor(uint32(b), 1, 1, false, grads[lo:min(lo+4, len(grads))])))
			}
			if st := r.Stats(); !r.Done() || st.Delivered != 3 || !slices.Equal(r.Sum(), grads) {
				t.Fatalf("done %v, stats %+v, sum %v, want %v", r.Done(), st, r.Sum(), grads)
			}
		})
	}
}

// TestReduceDropsResultWithOverlongBody: a result whose header counts its
// block's gradients but whose body carries more bytes is an oversized
// datagram, as the server's table counts it: dropped and counted, with the
// block left unanswered until a well-formed result arrives.
func TestReduceDropsResultWithOverlongBody(t *testing.T) {
	grads := []int32{1, 2, 3, 4}
	var w wire
	r := NewReduce(t0, ClientConfig{JobID: 1}, 1, grads, 4, 1, time.Minute)
	must(t, r.Refill(w.room))
	long := append(resultFor(0, 1, 1, false, []int32{9, 9, 9, 9}), 0, 0, 0, 9)
	must(t, r.Receive(t0, long))
	if st := r.Stats(); st.Dropped != 1 || st.Delivered != 0 || r.Done() {
		t.Fatalf("after an over-long result: stats %+v, done %v", st, r.Done())
	}
	must(t, r.Receive(t0, resultFor(0, 1, 1, false, grads)))
	if st := r.Stats(); !r.Done() || st.Delivered != 1 || !slices.Equal(r.Sum(), grads) {
		t.Fatalf("done %v, stats %+v, sum %v, want %v", r.Done(), st, r.Sum(), grads)
	}
}

// TestCloseInterruptsAllReduce: Close from another goroutine ends an
// AllReduce blocked on a server that never answers, promptly and with
// net.ErrClosed itself, not a wrapped read error or the timeout.
func TestCloseInterruptsAllReduce(t *testing.T) {
	f := newFakeServer(t)
	c := f.client(t, ClientConfig{})
	errCh := make(chan error, 1)
	go func() {
		_, err := c.AllReduce(1, make([]int32, 64), 32, 2, 30*time.Second)
		errCh <- err
	}()
	if _, _, err := f.recv(); err != nil { // the all-reduce is under way
		t.Fatal(err)
	}
	c.Close()
	select {
	case err := <-errCh:
		if err != net.ErrClosed {
			t.Fatalf("AllReduce after Close: err = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AllReduce still blocked 5 s after Close")
	}
}

// TestAllReduceFailsWhenTransportDies: if the client's socket dies under a
// running AllReduce, AllReduce must return an error promptly rather than
// wait out its timeout.
func TestAllReduceFailsWhenTransportDies(t *testing.T) {
	s := newTestServer(t, 2, 0) // 2 workers, only 1 contributes: never completes
	c := newTestClient(t, s, 0)
	errCh := make(chan error, 1)
	go func() {
		_, err := c.AllReduce(5, make([]int32, 4096), 1024, 2, 30*time.Second)
		errCh <- err
	}()
	// Kill the transport once the all-reduce is under way: the server has
	// heard from it.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Packets == 0 {
		if time.Now().After(deadline) {
			t.Fatal("AllReduce sent nothing")
		}
		runtime.Gosched()
	}
	c.conn.Close() // transport dies under the client
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("AllReduce returned nil after transport death")
		}
	case <-time.After(time.Until(deadline)):
		t.Fatal("AllReduce did not fail after transport death (stuck until timeout)")
	}
}
