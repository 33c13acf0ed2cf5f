package hostagg

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
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
	// ResultBuffer is the capacity of the Results channel; results arriving
	// while it is full are dropped (UDP semantics) and counted in
	// ClientStats.Dropped. Default 1024.
	ResultBuffer int

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

// Result is one aggregated block delivered to the application.
type Result struct {
	BlockID  uint32
	GenID    uint16
	SrcCnt   uint8
	Degraded bool
	Grads    []int32
}

// ClientStats is a snapshot of the client's receive-side counters.
type ClientStats struct {
	Delivered   uint64 // results handed to the Results channel
	Dropped     uint64 // results discarded because the channel was full
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

	results chan Result
	closed  chan struct{}

	// nacks carries retry-after NACKs from recvLoop to AllReduce. Buffered
	// and sent non-blocking: a NACK storm collapses to "back off now".
	nacks chan nackSignal

	// failed is closed (after failErr is set) when recvLoop dies on a read
	// error that was not a local Close; AllReduce surfaces it as an error
	// instead of spinning on a closed results channel.
	failed   chan struct{}
	failOnce sync.Once
	failErr  error

	delivered   atomic.Uint64
	dropped     atomic.Uint64
	sendRetries atomic.Uint64
	recvRetries atomic.Uint64
	retransmits atomic.Uint64
	nacked      atomic.Uint64
	backoffs    atomic.Uint64

	stopped sync.WaitGroup
}

// nackSignal is one decoded retry-after NACK.
type nackSignal struct {
	reason uint8
	millis uint32
}

// NewClient connects a worker to the aggregation server.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.ResultBuffer <= 0 {
		cfg.ResultBuffer = 1024
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
		results: make(chan Result, cfg.ResultBuffer),
		closed:  make(chan struct{}),
		failed:  make(chan struct{}),
		nacks:   make(chan nackSignal, 16),
		write:   runWriter(conn),
	}
	c.out = newBatch(c.writeRun)
	enableGRO(conn)
	c.stopped.Add(1)
	go c.recvLoop()
	return c, nil
}

// Close releases the socket.
func (c *Client) Close() error {
	select {
	case <-c.closed:
		return nil
	default:
	}
	close(c.closed)
	err := c.conn.Close()
	c.stopped.Wait()
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

// Err reports why the receive loop stopped, or nil while it is healthy.
func (c *Client) Err() error {
	select {
	case <-c.failed:
		return c.failErr
	default:
		return nil
	}
}

// fail records the receive loop's terminal error and signals waiters.
func (c *Client) fail(err error) {
	c.failOnce.Do(func() {
		c.failErr = err
		close(c.failed)
	})
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

// Results delivers aggregated blocks as they arrive. The channel is never
// closed; a dead receive loop is reported by Err and by AllReduce.
func (c *Client) Results() <-chan Result { return c.results }

// AllReduce streams the given gradient vector in window-limited blocks of
// blockGrads values each and returns the aggregated vector, applying the
// §5 recipe for degraded blocks: divide by the contributing source count
// scaled to the full worker count. It is a convenience wrapper over
// SendBlock/Results for synchronous use.
func (c *Client) AllReduce(genID uint16, grads []int32, blockGrads, numWorkers int, timeout time.Duration) ([]int32, error) {
	nBlocks := (len(grads) + blockGrads - 1) / blockGrads
	out := make([]int32, len(grads))
	got := make([]bool, nBlocks)
	done, next, inFlight, nackStreak := 0, 0, 0, 0
	// queue adds block b to the batch; the caller holds c.mu and flushes.
	queue := func(b int) error {
		lo := b * blockGrads
		return c.queue(uint32(b), genID, grads[lo:min(lo+blockGrads, len(grads))], b == nBlocks-1)
	}
	// refill tops the window up in one burst.
	refill := func() error {
		c.mu.Lock()
		defer c.mu.Unlock()
		for ; inFlight < c.cfg.Window && next < nBlocks; next, inFlight = next+1, inFlight+1 {
			if err := queue(next); err != nil {
				return err
			}
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
	accept := func(r Result) {
		if r.GenID != genID || int(r.BlockID) >= nBlocks || got[r.BlockID] {
			return
		}
		got[r.BlockID] = true
		done++
		inFlight--
		nackStreak = 0
		lo := int(r.BlockID) * blockGrads
		for i, g := range r.Grads {
			if lo+i >= len(out) {
				break
			}
			if r.Degraded && r.SrcCnt > 0 {
				// Rescale the partial sum to a full-cluster estimate.
				g = int32(int64(g) * int64(numWorkers) / int64(r.SrcCnt))
			}
			out[lo+i] = g
		}
	}
	if err := refill(); err != nil {
		return nil, err
	}
	deadline := time.After(timeout)
	var retx <-chan time.Time
	if c.cfg.RetransmitEvery > 0 {
		t := time.NewTicker(c.cfg.RetransmitEvery)
		defer t.Stop()
		retx = t.C
	}
	for done < nBlocks {
		select {
		case nk := <-c.nacks:
			// The server refused a contribution and told us when to come
			// back. Honor it — keep the send window quiet for the suggested
			// interval — and give up with ErrShed once the server has done
			// nothing but refuse for a full retry budget.
			nackStreak++
			if nackStreak > c.cfg.MaxRetries {
				return nil, fmt.Errorf("hostagg: allreduce refused by server (reason %d) for %d consecutive nacks with %d/%d blocks: %w",
					nk.reason, nackStreak, done, nBlocks, ErrShed)
			}
			c.backoffs.Add(1)
			wait := time.Duration(nk.millis) * time.Millisecond
			if wait <= 0 {
				wait = c.cfg.RetryCap
			}
			if wait > time.Second {
				wait = time.Second
			}
			if !c.sleepBackoff(wait) {
				return nil, net.ErrClosed
			}
			// A burst of NACKs counts once: everything queued while we
			// slept belongs to the same refusal we just honored.
		drainNacks:
			for {
				select {
				case <-c.nacks:
				default:
					break drainNacks
				}
			}
		case r := <-c.results:
			// Take every result already queued, so that one burst of
			// results is answered by one burst of blocks.
			accept(r)
		drainResults:
			for {
				select {
				case r := <-c.results:
					accept(r)
				default:
					break drainResults
				}
			}
			if err := refill(); err != nil {
				return nil, err
			}
		case <-retx:
			// Resend every sent-but-unanswered block: repairs contributions
			// the network (or an injected fault) lost, and — with the
			// server's ReplayWindow — recovers results whose first copy
			// never arrived.
			if err := resend(); err != nil {
				return nil, err
			}
		case <-c.failed:
			return nil, fmt.Errorf("hostagg: receive loop failed with %d/%d blocks: %w", done, nBlocks, c.failErr)
		case <-deadline:
			st := c.Stats()
			return nil, fmt.Errorf("hostagg: allreduce timed out with %d/%d blocks (%d results delivered, %d dropped)",
				done, nBlocks, st.Delivered, st.Dropped)
		case <-c.closed:
			return nil, net.ErrClosed
		}
	}
	return out, nil
}

// recvLoop reads the socket one buffer at a time — with UDP_GRO, a whole run
// of datagrams — and delivers each datagram in it.
func (c *Client) recvLoop() {
	defer c.stopped.Done()
	buf := make([]byte, 65536)
	oob := make([]byte, 64)
	backoff := c.cfg.RetryBase
	for {
		n, oobn, _, _, err := c.conn.ReadMsgUDPAddrPort(buf, oob)
		if err != nil {
			select {
			case <-c.closed:
				return
			default:
			}
			if transientNetErr(err) {
				// ECONNREFUSED and friends surface here while the server
				// restarts; back off and keep listening rather than killing
				// the client. The schedule resets on the next good read.
				c.recvRetries.Add(1)
				if !c.sleepBackoff(backoff) {
					return
				}
				backoff = c.nextBackoff(backoff)
				continue
			}
			// Leave c.results open: closing it would feed receivers an
			// endless stream of zero-value Results (gen 0, block 0)
			// that could silently zero out real gradients. Signal the
			// failure explicitly instead.
			c.fail(err)
			return
		}
		backoff = c.cfg.RetryBase
		seg := groSegmentSize(oob[:oobn])
		for p := buf[:n]; ; {
			var d []byte
			d, p = nextSegment(p, seg)
			c.deliver(d)
			if len(p) == 0 {
				break
			}
		}
	}
}

// deliver decodes one datagram from the server: a retry-after NACK goes to
// AllReduce's nack channel, a result to the Results channel.
func (c *Client) deliver(d []byte) {
	var h packet.TrioML
	rest, err := h.Unmarshal(d)
	if err != nil || h.JobID != c.cfg.JobID {
		return
	}
	if h.SrcID == packet.CtrlSrcID {
		var ra packet.RetryAfter
		if _, err := ra.Unmarshal(rest); err != nil {
			return
		}
		c.nacked.Add(1)
		select {
		case c.nacks <- nackSignal{reason: h.AgeOp, millis: ra.Millis}:
		default:
		}
		return
	}
	if h.SrcID != packet.ResultSrcID {
		return
	}
	grads, err := packet.Gradients(rest, int(h.GradCnt))
	if err != nil {
		return
	}
	r := Result{BlockID: h.BlockID, GenID: h.GenID, SrcCnt: h.SrcCnt, Degraded: h.Degraded, Grads: grads}
	select {
	case c.results <- r:
		c.delivered.Add(1)
	default:
		// Application is not draining; drop (UDP semantics) but account
		// for it so a stalled AllReduce is diagnosable.
		c.dropped.Add(1)
	}
}
