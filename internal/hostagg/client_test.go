package hostagg

import (
	"errors"
	"net"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/trioml/triogo/internal/packet"
)

// recvResult reads datagrams through c.next until a result arrives and
// returns it decoded; ok is false if none arrives by wake.
func recvResult(t *testing.T, c *Client, wake time.Time) (h packet.TrioML, grads []int32, ok bool) {
	t.Helper()
	for {
		d, err := c.next(wake)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return h, nil, false
		}
		if err != nil {
			t.Fatal(err)
		}
		rest, err := h.Unmarshal(d)
		if err != nil || h.SrcID != packet.ResultSrcID {
			continue
		}
		if grads, err = packet.Gradients(rest, int(h.GradCnt)); err == nil {
			return h, grads, true
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

// result answers block with grads, the sum of srcCnt sources.
func (f *fakeServer) result(to *net.UDPAddr, block uint32, gen uint16, srcCnt uint8, degraded bool, grads []int32) error {
	h := packet.TrioML{JobID: 1, BlockID: block, SrcID: packet.ResultSrcID, GenID: gen,
		SrcCnt: srcCnt, Degraded: degraded, GradCnt: uint16(len(grads))}
	p := make([]byte, packet.TrioMLHeaderLen+4*len(grads))
	h.MarshalTo(p)
	packet.PutGradients(p[packet.TrioMLHeaderLen:], grads)
	_, err := f.conn.WriteToUDP(p, to)
	return err
}

// TestAllReduceTakesResultForUnsentBlock: the server sends every result to
// all of a job's workers, so a block may be answered before this client sent
// it. That result is the block's answer, the block is never sent, and — not
// having been sent — it frees no window slot. The fake server answers block 3
// (degraded, one source of two) before blocks 0 and 1, and also sends a
// duplicate and a result of another generation, which count as dropped.
func TestAllReduceTakesResultForUnsentBlock(t *testing.T) {
	f := newFakeServer(t)
	c := f.client(t, ClientConfig{Window: 2})
	grads := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	block := func(b int) []int32 { return grads[2*b : 2*b+2] }
	twice := func(b int) []int32 { return []int32{2 * block(b)[0], 2 * block(b)[1]} }

	const sentinel = 99
	seen := make(chan []uint32, 1)
	go func() {
		var ids []uint32
		defer func() { seen <- ids }()
		var to *net.UDPAddr
		for len(ids) < 2 {
			h, from, err := f.recv()
			if err != nil {
				return
			}
			ids, to = append(ids, h.BlockID), from
		}
		for _, err := range []error{
			f.result(to, 3, 1, 1, true, block(3)),
			f.result(to, 3, 1, 1, true, block(3)),  // duplicate
			f.result(to, 2, 0, 2, false, twice(2)), // another generation
			f.result(to, 0, 1, 2, false, twice(0)),
			f.result(to, 1, 1, 2, false, twice(1)),
		} {
			if err != nil {
				return
			}
		}
		for {
			h, from, err := f.recv()
			if err != nil {
				return
			}
			ids = append(ids, h.BlockID)
			switch h.BlockID {
			case sentinel:
				return
			case 2:
				if f.result(from, 2, 1, 2, false, twice(2)) != nil {
					return
				}
			}
		}
	}()

	sum, err := c.AllReduce(1, grads, 2, 2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Datagrams from one socket arrive in order: once the sentinel is in,
	// anything AllReduce sent has been seen.
	if err := c.SendBlock(sentinel, 1, nil, false); err != nil {
		t.Fatal(err)
	}
	if ids := <-seen; !slices.Equal(ids, []uint32{0, 1, 2, sentinel}) {
		t.Fatalf("server read blocks %v, want 0 1 2 and the sentinel: block 3 was answered before it was sent", ids)
	}
	for i, g := range sum {
		if g != 2*grads[i] {
			t.Fatalf("sum = %v, want every gradient doubled (block 3 rescaled from one source to two)", sum)
		}
	}
	if st := c.Stats(); st.Delivered != 4 || st.Dropped != 2 {
		t.Fatalf("stats = %+v, want 4 delivered, 2 dropped (the duplicate and the other generation)", st)
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

// TestClientNackBurstBacksOffOnce: the server refuses a whole window, one NACK per
// block. A NACK counts only if a block left since the last one honored, so
// the burst costs one back-off rather than a streak that ends in ErrShed.
// Every block was sent in the first burst and nothing is resent, so the count
// does not depend on how the NACKs are spread over reads.
func TestClientNackBurstBacksOffOnce(t *testing.T) {
	const n = 16
	f := newFakeServer(t)
	c := f.client(t, ClientConfig{Window: n})
	grads := make([]int32, n)
	for i := range grads {
		grads[i] = int32(i + 1)
	}
	go func() {
		var hs []packet.TrioML
		var to *net.UDPAddr
		for len(hs) < n {
			h, from, err := f.recv()
			if err != nil {
				return
			}
			hs, to = append(hs, h), from
		}
		for _, h := range hs {
			if _, err := f.conn.WriteToUDP(packet.BuildRetryAfter(h, packet.RetryReasonOverload, 1), to); err != nil {
				return
			}
		}
		for _, h := range hs {
			if f.result(to, h.BlockID, h.GenID, 1, false, grads[h.BlockID:h.BlockID+1]) != nil {
				return
			}
		}
	}()
	sum, err := c.AllReduce(1, grads, 1, 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sum, grads) {
		t.Fatalf("sum = %v, want %v", sum, grads)
	}
	if st := c.Stats(); st.Nacked != n || st.Backoffs != 1 {
		t.Fatalf("stats = %+v, want %d NACKs read and exactly 1 back-off", st, n)
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
