package hostagg

import (
	"cmp"
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

// A transient network error (EINTR, ENOBUFS, ECONNREFUSED, ...) is retried
// after a backoff that starts at retryBase and doubles per consecutive
// failure up to retryCap; after maxRetries consecutive retries the send
// fails with ErrGaveUp. A run of retry-after NACKs is likewise given up, as
// ErrShed, after maxRetries back-offs.
const (
	retryBase  = time.Millisecond
	retryCap   = 100 * time.Millisecond
	maxRetries = 8
)

// withDefaults replaces zero or negative fields with their defaults.
func (cfg ClientConfig) withDefaults() ClientConfig {
	cfg.Window = cmp.Or(max(cfg.Window, 0), 16)
	return cfg
}

// ClientStats is a snapshot of the client's receive-side counters.
type ClientStats struct {
	Delivered   uint64 // results AllReduce accepted, one per block
	Dropped     uint64 // results read but used by no block: other gen, duplicate, out of range, truncated or of the wrong length
	SendRetries uint64 // transient send errors retried with backoff
	RecvRetries uint64 // transient receive errors retried with backoff
	Retransmits uint64 // blocks AllReduce resent, every RetransmitEvery and when a NACK back-off ends
	Nacked      uint64 // retry-after NACKs received from the server
	Backoffs    uint64 // back-offs AllReduce took in response to NACKs
}

// clientCounters are the counters behind ClientStats.
type clientCounters struct {
	delivered, dropped, sendRetries, recvRetries, retransmits, nacked, backoffs atomic.Uint64
}

// Stats returns a snapshot of the receive-side counters.
func (k *clientCounters) Stats() ClientStats {
	return ClientStats{
		Delivered:   k.delivered.Load(),
		Dropped:     k.dropped.Load(),
		SendRetries: k.sendRetries.Load(),
		RecvRetries: k.recvRetries.Load(),
		Retransmits: k.retransmits.Load(),
		Nacked:      k.nacked.Load(),
		Backoffs:    k.backoffs.Load(),
	}
}

// Client streams gradient blocks to a hostagg server and collects results.
type Client struct {
	cfg  ClientConfig
	conn *net.UDPConn

	// mu serializes senders on out, the one batch every block leaves
	// through (room, then flush), one write per run with retries (writeRun).
	mu    sync.Mutex
	out   *batch
	write func(p []byte, seg int, to netip.AddrPort) error
	room  func(n int) ([]byte, error)

	// closed is closed by Close; a read or a back-off it interrupts
	// returns net.ErrClosed.
	closed    chan struct{}
	closeOnce sync.Once

	// buf and oob take one read (with UDP_GRO, a run of datagrams and the
	// control message giving their size) by the one AllReduce running.
	buf, oob []byte

	clientCounters
}

// NewClient connects a worker to the aggregation server.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
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
	c.room = func(n int) ([]byte, error) { return c.out.next(n, netip.AddrPort{}) }
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

// pause sleeps the backoff after the attempt-th consecutive transient error
// (from 0: retryBase, then doubled per attempt up to retryCap) unless the
// client is closed first.
func (c *Client) pause(attempt int) bool {
	d := retryBase
	for range attempt {
		d = min(2*d, retryCap)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closed:
		return false
	}
}

// SendBlock transmits one gradient block, absorbing transient network
// errors with capped exponential backoff. It fails with ErrGaveUp after
// maxRetries consecutive transient errors, and immediately on anything
// non-transient.
func (c *Client) SendBlock(blockID uint32, genID uint16, grads []int32, final bool) error {
	h := packet.TrioML{JobID: c.cfg.JobID, BlockID: blockID, SrcID: c.cfg.SrcID, GenID: genID, Final: final}
	return c.sending(func() error { return putContribution(c.room, h, grads) })
}

// writeRun is the batch's way out: one write on the connected socket,
// retried through transient network errors with capped exponential backoff.
// It fails with ErrGaveUp after maxRetries consecutive transient errors, and
// immediately on anything non-transient — a GSO refusal included, which the
// batch answers by resending the run one datagram at a time.
func (c *Client) writeRun(p []byte, seg int, to netip.AddrPort) error {
	for attempt := 0; ; attempt++ {
		err := c.write(p, seg, to)
		if !transientNetErr(err) {
			return err // nil included
		}
		if attempt >= maxRetries {
			return fmt.Errorf("hostagg: send %d bytes: %w (%d attempts, last: %v)",
				len(p), ErrGaveUp, attempt+1, err)
		}
		c.sendRetries.Add(1)
		if !c.pause(attempt) {
			return net.ErrClosed
		}
	}
}

// AllReduce streams grads in window-limited blocks of blockGrads values and
// returns the aggregated vector, degraded blocks rescaled to numWorkers. It
// is the UDP shell around a Reduce and reads the socket itself, with the
// read deadline at Wake, so one AllReduce runs on a client at a time.
func (c *Client) AllReduce(genID uint16, grads []int32, blockGrads, numWorkers int, timeout time.Duration) ([]int32, error) {
	r := newReduce(time.Now(), c.cfg, &c.clientCounters, genID, grads, blockGrads, numWorkers, timeout)
	err := c.sending(func() error { return r.Refill(c.room) })
	for err == nil && !r.Done() {
		buf, seg, rerr := c.read(r.Wake())
		now := time.Now()
		switch {
		case rerr == nil:
			for len(buf) > 0 && err == nil {
				var d []byte
				d, buf = nextSegment(buf, seg)
				err = r.Receive(now, d)
			}
			if err == nil {
				err = c.sending(func() error { return r.Refill(c.room) })
			}
		case errors.Is(rerr, os.ErrDeadlineExceeded):
			err = c.sending(func() error { return r.Expire(now, c.room) })
		case rerr == net.ErrClosed:
			err = rerr
		default:
			err = fmt.Errorf("hostagg: receive failed with %d/%d blocks: %w", r.done, len(r.got), rerr)
		}
	}
	if err != nil {
		return nil, err
	}
	return r.Sum(), nil
}

// sending runs a step that queues datagrams in out, holding mu, and
// flushes them.
func (c *Client) sending(step func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := step(); err != nil {
		return err
	}
	return c.out.flush()
}

// read returns the next buffer from the server — with UDP_GRO, a run of
// seg-byte datagrams — and fails with os.ErrDeadlineExceeded if nothing
// arrives by wake. Transient errors (ECONNREFUSED while the server restarts,
// ...) are retried with capped backoff; after Close it returns net.ErrClosed.
func (c *Client) read(wake time.Time) (buf []byte, seg int, err error) {
	for attempt := 0; ; attempt++ {
		err = c.conn.SetReadDeadline(wake)
		if err == nil {
			var n, oobn int
			n, oobn, _, _, err = c.conn.ReadMsgUDPAddrPort(c.buf, c.oob)
			if err == nil {
				return c.buf[:n], groSegmentSize(c.oob[:oobn]), nil
			}
		}
		select {
		case <-c.closed:
			return nil, 0, net.ErrClosed
		default:
		}
		if !transientNetErr(err) {
			return nil, 0, err
		}
		c.recvRetries.Add(1)
		if !c.pause(attempt) {
			return nil, 0, net.ErrClosed
		}
	}
}
