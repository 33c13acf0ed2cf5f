package hostagg

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/trioml/triogo/internal/packet"
)

// ErrGaveUp reports that an operation kept hitting transient network errors
// and exhausted its retry budget. Match with errors.Is.
var ErrGaveUp = errors.New("gave up after transient network errors")

// ErrShed reports that the server kept refusing this client's contributions
// with retry-after NACKs — the tenant is over quota or the server is
// overloaded — which is a policy decision, not network loss. Match with
// errors.Is to distinguish it from ErrGaveUp.
var ErrShed = errors.New("shed by server admission control")

// ClientConfig parameterizes a worker client.
type ClientConfig struct {
	ServerAddr string // aggregator address, e.g. "127.0.0.1:12000"
	JobID      uint8
	SrcID      uint8
	Window     int // outstanding blocks; default 16

	// RetryBase is the first backoff after a transient network error (EINTR,
	// ENOBUFS, ECONNREFUSED, ...); it doubles per consecutive failure up to
	// RetryCap. Defaults: 1ms base, 100ms cap.
	RetryBase time.Duration
	RetryCap  time.Duration
	// MaxRetries bounds consecutive SendBlock retries before the call fails
	// with ErrGaveUp. Default 8.
	MaxRetries int
	// RetransmitEvery, when positive, makes AllReduce periodically resend
	// every sent-but-unanswered block — the end-host loss recovery of §5
	// (the server's ReplayWindow keeps retransmits idempotent). Zero
	// disables retransmission.
	RetransmitEvery time.Duration
}

// transientNetErr reports whether err is a transient kernel-level network
// error worth retrying: interrupted syscalls, exhausted socket buffers, and
// the connection-refused bounces a connected UDP socket surfaces while its
// peer is (re)starting.
func transientNetErr(err error) bool {
	return errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.Is(err, syscall.ENETUNREACH)
}

// ClientStats is a snapshot of the client's receive-side counters.
type ClientStats struct {
	Delivered   uint64 // results AllReduce accepted, one per block
	Dropped     uint64 // results read but used by no block: other gen, duplicate, out of range or truncated
	SendRetries uint64 // transient send errors retried with backoff
	RecvRetries uint64 // transient receive errors retried with backoff
	Retransmits uint64 // blocks resent by AllReduce's RetransmitEvery timer
	Nacked      uint64 // retry-after NACKs received from the server
	Backoffs    uint64 // back-off sleeps AllReduce took in response to NACKs
}

// Client streams gradient blocks to a hostagg server and collects results.
type Client struct {
	cfg  ClientConfig
	conn *net.UDPConn

	// mu serializes senders on out, the one batch every block leaves
	// through: one write per run, with retries (writeRun).
	mu    sync.Mutex
	out   *batch
	write func(p []byte, seg int, to netip.AddrPort) error

	// closed is closed by Close; a read or a back-off it interrupts
	// returns net.ErrClosed.
	closed    chan struct{}
	closeOnce sync.Once

	// buf holds the last buffer read — with UDP_GRO, a run of seg-byte
	// datagrams — and rest the part of it next has not returned yet. Only
	// the one AllReduce running reads them.
	buf, oob, rest []byte
	seg            int

	delivered   atomic.Uint64
	dropped     atomic.Uint64
	sendRetries atomic.Uint64
	recvRetries atomic.Uint64
	retransmits atomic.Uint64
	nacked      atomic.Uint64
	backoffs    atomic.Uint64
}

// NewClient connects a worker to the aggregation server.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 100 * time.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.ServerAddr)
	if err != nil {
		return nil, fmt.Errorf("hostagg: resolve server: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, fmt.Errorf("hostagg: dial: %w", err)
	}
	c := &Client{
		cfg: cfg, conn: conn,
		closed: make(chan struct{}),
		write:  runWriter(conn),
		buf:    make([]byte, 65536),
		oob:    make([]byte, 64),
	}
	c.out = newBatch(c.writeRun)
	enableGRO(conn)
	return c, nil
}

// Close releases the socket; an AllReduce blocked on it returns
// net.ErrClosed.
func (c *Client) Close() (err error) {
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.conn.Close()
	})
	return err
}

// Stats returns a snapshot of the receive-side counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Delivered:   c.delivered.Load(),
		Dropped:     c.dropped.Load(),
		SendRetries: c.sendRetries.Load(),
		RecvRetries: c.recvRetries.Load(),
		Retransmits: c.retransmits.Load(),
		Nacked:      c.nacked.Load(),
		Backoffs:    c.backoffs.Load(),
	}
}

// sleepBackoff waits for d unless the client is closed first.
func (c *Client) sleepBackoff(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closed:
		return false
	}
}

// nextBackoff doubles cur up to the configured cap.
func (c *Client) nextBackoff(cur time.Duration) time.Duration {
	cur *= 2
	if cur > c.cfg.RetryCap {
		cur = c.cfg.RetryCap
	}
	return cur
}

// SendBlock transmits one gradient block, absorbing transient network
// errors with capped exponential backoff. It fails with ErrGaveUp after
// MaxRetries consecutive transient errors, and immediately on anything
// non-transient.
func (c *Client) SendBlock(blockID uint32, genID uint16, grads []int32, final bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.queue(blockID, genID, grads, final); err != nil {
		return err
	}
	return c.out.flush()
}

// queue marshals one block straight into the batch; the caller holds c.mu
// and flushes.
func (c *Client) queue(blockID uint32, genID uint16, grads []int32, final bool) error {
	if len(grads) > packet.MaxGradientsPerPacket {
		return fmt.Errorf("hostagg: %d gradients exceeds packet max %d", len(grads), packet.MaxGradientsPerPacket)
	}
	p, err := c.out.next(packet.TrioMLHeaderLen+4*len(grads), netip.AddrPort{})
	if err != nil {
		return err
	}
	hdr := packet.TrioML{
		JobID: c.cfg.JobID, BlockID: blockID, SrcID: c.cfg.SrcID,
		GenID: genID, GradCnt: uint16(len(grads)), Final: final,
	}
	hdr.MarshalTo(p)
	packet.PutGradients(p[packet.TrioMLHeaderLen:], grads)
	return nil
}

// writeRun is the batch's way out: one write on the connected socket,
// retried through transient network errors with capped exponential backoff.
// It fails with ErrGaveUp after MaxRetries consecutive transient errors, and
// immediately on anything non-transient — a GSO refusal included, which the
// batch answers by resending the run one datagram at a time.
func (c *Client) writeRun(p []byte, seg int, to netip.AddrPort) error {
	backoff := c.cfg.RetryBase
	for attempt := 0; ; attempt++ {
		err := c.write(p, seg, to)
		if err == nil {
			return nil
		}
		if !transientNetErr(err) {
			return err
		}
		if attempt >= c.cfg.MaxRetries {
			return fmt.Errorf("hostagg: send %d bytes: %w (%d attempts, last: %v)",
				len(p), ErrGaveUp, attempt+1, err)
		}
		c.sendRetries.Add(1)
		if !c.sleepBackoff(backoff) {
			return net.ErrClosed
		}
		backoff = c.nextBackoff(backoff)
	}
}

// AllReduce streams the given gradient vector in window-limited blocks of
// blockGrads values each and returns the aggregated vector, applying the
// §5 recipe for degraded blocks: divide by the contributing source count
// scaled to the full worker count. It reads the client's socket itself, so
// one AllReduce runs on a client at a time.
//
// A result is the answer for its block whether or not the block was sent:
// the server sends every result to all of a job's workers, so a block the
// others finished (or that aged out) may be answered before this client
// reached it. Such a block is never sent, and only a sent block frees a
// window slot.
func (c *Client) AllReduce(genID uint16, grads []int32, blockGrads, numWorkers int, timeout time.Duration) ([]int32, error) {
	nBlocks := (len(grads) + blockGrads - 1) / blockGrads
	out := make([]int32, len(grads))
	got := make([]bool, nBlocks)
	done, next, inFlight, nackStreak := 0, 0, 0, 0
	// quiet is set when a NACK is honored and cleared when a block leaves:
	// a NACK read while it is set refuses a block the honored one already
	// backed off for, so a burst of NACKs costs one back-off.
	quiet := false
	// queue adds block b to the batch; the caller holds c.mu and flushes.
	queue := func(b int) error {
		lo := b * blockGrads
		quiet = false
		return c.queue(uint32(b), genID, grads[lo:min(lo+blockGrads, len(grads))], b == nBlocks-1)
	}
	// refill tops the window up in one burst, skipping answered blocks.
	refill := func() error {
		c.mu.Lock()
		defer c.mu.Unlock()
		for ; inFlight < c.cfg.Window && next < nBlocks; next++ {
			if got[next] {
				continue
			}
			if err := queue(next); err != nil {
				return err
			}
			inFlight++
		}
		return c.out.flush()
	}
	// resend repeats every sent-but-unanswered block in one burst.
	resend := func() error {
		c.mu.Lock()
		defer c.mu.Unlock()
		for b := 0; b < next; b++ {
			if got[b] {
				continue
			}
			if err := queue(b); err != nil {
				return err
			}
			c.retransmits.Add(1)
		}
		return c.out.flush()
	}
	// accept adds a result's gradients into out — zeroed, and each block is
	// accepted once — and rescales them in place if it is degraded.
	accept := func(h *packet.TrioML, body []byte) bool {
		b, n := int(h.BlockID), int(h.GradCnt)
		if h.GenID != genID || b >= nBlocks || got[b] || len(body) < 4*n {
			return false
		}
		got[b] = true
		done++
		if b < next {
			inFlight--
		}
		nackStreak = 0
		lo := b * blockGrads
		dst := out[lo:min(lo+blockGrads, len(out))]
		packet.AddGradients(dst, body, n)
		if h.Degraded && h.SrcCnt > 0 {
			// Rescale the partial sum to a full-cluster estimate.
			for i, g := range dst {
				dst[i] = int32(int64(g) * int64(numWorkers) / int64(h.SrcCnt))
			}
		}
		return true
	}
	// backOff honors a retry-after NACK: keep the send window quiet for the
	// suggested interval, and give up with ErrShed once the server has done
	// nothing but refuse for a full retry budget.
	backOff := func(h *packet.TrioML, ra packet.RetryAfter) error {
		quiet = true
		nackStreak++
		if nackStreak > c.cfg.MaxRetries {
			return fmt.Errorf("hostagg: allreduce refused by server (reason %d) for %d consecutive nacks with %d/%d blocks: %w",
				h.AgeOp, nackStreak, done, nBlocks, ErrShed)
		}
		c.backoffs.Add(1)
		wait := time.Duration(ra.Millis) * time.Millisecond
		if wait <= 0 {
			wait = c.cfg.RetryCap
		}
		if !c.sleepBackoff(min(wait, time.Second)) {
			return net.ErrClosed
		}
		return nil
	}

	if err := refill(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	var retx time.Time // the next resend; zero without RetransmitEvery
	if c.cfg.RetransmitEvery > 0 {
		retx = time.Now().Add(c.cfg.RetransmitEvery)
	}
	for done < nBlocks {
		wake := deadline
		if !retx.IsZero() && retx.Before(wake) {
			wake = retx
		}
		d, err := c.next(wake)
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			now := time.Now()
			if !now.Before(deadline) {
				st := c.Stats()
				return nil, fmt.Errorf("hostagg: allreduce timed out with %d/%d blocks (%d results delivered, %d dropped)",
					done, nBlocks, st.Delivered, st.Dropped)
			}
			// Resend every sent-but-unanswered block: repairs contributions
			// the network (or an injected fault) lost, and — with the
			// server's ReplayWindow — recovers results whose first copy
			// never arrived.
			if err := resend(); err != nil {
				return nil, err
			}
			retx = now.Add(c.cfg.RetransmitEvery)
			continue
		case err == net.ErrClosed:
			return nil, err
		case err != nil:
			return nil, fmt.Errorf("hostagg: receive failed with %d/%d blocks: %w", done, nBlocks, err)
		}
		var h packet.TrioML
		if body, err := h.Unmarshal(d); err == nil && h.JobID == c.cfg.JobID {
			switch h.SrcID {
			case packet.ResultSrcID:
				if accept(&h, body) {
					c.delivered.Add(1)
				} else {
					c.dropped.Add(1)
				}
			case packet.CtrlSrcID:
				var ra packet.RetryAfter
				if _, err := ra.Unmarshal(body); err != nil {
					break
				}
				c.nacked.Add(1)
				if !quiet {
					if err := backOff(&h, ra); err != nil {
						return nil, err
					}
				}
			}
		}
		// One burst of results is answered by one burst of blocks.
		if len(c.rest) == 0 {
			if err := refill(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// next returns the next datagram from the server. It reads the socket — with
// UDP_GRO, a whole run of datagrams at once — only when the last buffer is
// used up, and fails with os.ErrDeadlineExceeded if nothing arrives by wake.
// Transient errors (ECONNREFUSED while the server restarts, ...) are retried
// with capped backoff; after Close it returns net.ErrClosed.
func (c *Client) next(wake time.Time) ([]byte, error) {
	backoff := c.cfg.RetryBase
	for len(c.rest) == 0 {
		err := c.conn.SetReadDeadline(wake)
		if err == nil {
			var n, oobn int
			n, oobn, _, _, err = c.conn.ReadMsgUDPAddrPort(c.buf, c.oob)
			if err == nil {
				c.rest, c.seg = c.buf[:n], groSegmentSize(c.oob[:oobn])
				break
			}
		}
		select {
		case <-c.closed:
			return nil, net.ErrClosed
		default:
		}
		if !transientNetErr(err) {
			return nil, err
		}
		c.recvRetries.Add(1)
		if !c.sleepBackoff(backoff) {
			return nil, net.ErrClosed
		}
		backoff = c.nextBackoff(backoff)
	}
	var d []byte
	d, c.rest = nextSegment(c.rest, c.seg)
	return d, nil
}
