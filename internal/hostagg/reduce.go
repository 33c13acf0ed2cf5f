package hostagg

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"github.com/trioml/triogo/internal/packet"
)

// Reduce is one allreduce with no socket, no goroutine and no clock: the
// window, retransmit, retry-after and generation rules Client.AllReduce runs
// over its socket. Like Table's Handle and Sweep, each step takes the
// instant, and a step that sends takes the way out: room(n) hands back room
// for one n-byte datagram, which the step fills. A driver calls NewReduce
// and Refill, then Receive per datagram and Refill per receive buffer, and
// Expire when its clock reaches Wake, until Done or a step fails.
//
// The server sends every result to all of a job's workers, so a block may be
// answered before this worker sent it. Such a block is never sent, and only
// a sent block frees a window slot.
type Reduce struct {
	cfg                    ClientConfig
	gen                    uint16
	grads, sum             []int32 // sum starts zeroed; each block is written once
	got                    []bool  // blocks answered
	blockGrads, numWorkers int

	done, next, inFlight, nackStreak int
	// retx is the next resend, zero without RetransmitEvery. resume, while
	// set, ends a NACK back-off, during which nothing is sent.
	deadline, retx, resume time.Time
	*clientCounters
}

// NewReduce starts one allreduce at now, from AllReduce's arguments and cfg
// (defaulted as by NewClient), counting into counters of its own (Stats).
// The timeout and the first retransmit period run from now.
func NewReduce(now time.Time, cfg ClientConfig, genID uint16, grads []int32, blockGrads, numWorkers int, timeout time.Duration) *Reduce {
	return newReduce(now, cfg.withDefaults(), new(clientCounters), genID, grads, blockGrads, numWorkers, timeout)
}

func newReduce(now time.Time, cfg ClientConfig, ctr *clientCounters, genID uint16, grads []int32, blockGrads, numWorkers int, timeout time.Duration) *Reduce {
	r := &Reduce{cfg: cfg, gen: genID, grads: grads, sum: make([]int32, len(grads)),
		got: make([]bool, (len(grads)+blockGrads-1)/blockGrads), blockGrads: blockGrads, numWorkers: numWorkers,
		deadline: now.Add(timeout), clientCounters: ctr}
	if r.cfg.RetransmitEvery > 0 {
		r.retx = now.Add(r.cfg.RetransmitEvery)
	}
	return r
}

// Receive takes one datagram from the server. A result is decoded into its
// block's slice of the sum, rescaled there if degraded (§5); one for another
// generation or an answered block, or not of its block's length, is dropped
// (Stats.Dropped). A retry-after NACK starts a back-off of its suggested
// wait (retryCap if none, a second at most) unless one is running, so a
// burst costs one; after maxRetries back-offs with no result between them
// the next NACK fails with ErrShed.
func (r *Reduce) Receive(now time.Time, d []byte) error {
	var h packet.TrioML
	body, err := h.Unmarshal(d)
	switch {
	case err != nil || h.JobID != r.cfg.JobID:
	case h.SrcID == packet.ResultSrcID:
		b, n := int(h.BlockID), int(h.GradCnt)
		lo, hi := r.span(b)
		// A result whose gradient count is not its block's length would
		// answer the block with a short or spilled sum, and one whose body
		// is not GradCnt lanes is truncated or oversized: drop them as well.
		if h.GenID != r.gen || b >= len(r.got) || r.got[b] || n != hi-lo || len(body) != 4*n {
			r.dropped.Add(1)
			return nil
		}
		r.delivered.Add(1)
		r.got[b] = true
		r.done++
		if b < r.next {
			r.inFlight--
		}
		r.nackStreak = 0
		dst := r.sum[lo:hi]
		packet.DecodeLanes(dst, body)
		if h.Degraded && h.SrcCnt > 0 {
			for i, g := range dst {
				dst[i] = int32(int64(g) * int64(r.numWorkers) / int64(h.SrcCnt))
			}
		}
	case h.SrcID == packet.CtrlSrcID:
		var ra packet.RetryAfter
		if _, err := ra.Unmarshal(body); err != nil {
			return nil
		}
		r.nacked.Add(1)
		if !r.resume.IsZero() {
			return nil
		}
		if r.nackStreak++; r.nackStreak > maxRetries {
			return fmt.Errorf("hostagg: allreduce refused by server (reason %d) for %d consecutive nacks with %d/%d blocks: %w",
				h.AgeOp, r.nackStreak, r.done, len(r.got), ErrShed)
		}
		r.backoffs.Add(1)
		r.resume = now.Add(min(cmp.Or(time.Duration(ra.Millis)*time.Millisecond, retryCap), time.Second))
	}
	return nil
}

// Refill tops the window up in one burst, skipping answered blocks; during
// a back-off it sends nothing.
func (r *Reduce) Refill(room func(n int) ([]byte, error)) error {
	for ; r.resume.IsZero() && r.inFlight < r.cfg.Window && r.next < len(r.got); r.next++ {
		if r.got[r.next] {
			continue
		}
		if err := r.queue(room, r.next); err != nil {
			return err
		}
		r.inFlight++
	}
	return nil
}

// Expire acts on what is due at now. At the deadline the call fails. At the
// retransmit instant or the end of a back-off, every sent but unanswered
// block is resent in one burst (the server's ReplayWindow answers one it
// already served) and the window is refilled. Before Wake it does nothing.
func (r *Reduce) Expire(now time.Time, room func(n int) ([]byte, error)) error {
	if !now.Before(r.deadline) {
		return fmt.Errorf("hostagg: allreduce timed out with %d/%d blocks (%d results delivered, %d dropped)",
			r.done, len(r.got), r.delivered.Load(), r.dropped.Load())
	}
	if now.Before(r.Wake()) {
		return nil
	}
	r.resume = time.Time{}
	if r.cfg.RetransmitEvery > 0 {
		r.retx = now.Add(r.cfg.RetransmitEvery)
	}
	for b := 0; b < r.next; b++ {
		if !r.got[b] {
			if err := r.queue(room, b); err != nil {
				return err
			}
			r.retransmits.Add(1)
		}
	}
	return r.Refill(room)
}

// Wake is the next instant Expire has work: the end of the back-off if one
// is running, else the next retransmit, and never later than the deadline.
func (r *Reduce) Wake() time.Time {
	if due := cmp.Or(r.resume, r.retx, r.deadline); due.Before(r.deadline) {
		return due
	}
	return r.deadline
}

// Done reports whether every block has its result.
func (r *Reduce) Done() bool { return r.done == len(r.got) }

// Sum is the output vector, complete once Done.
func (r *Reduce) Sum() []int32 { return r.sum }

// span bounds block b in grads and sum.
func (r *Reduce) span(b int) (lo, hi int) {
	lo = b * r.blockGrads
	return lo, min(lo+r.blockGrads, len(r.grads))
}

func (r *Reduce) queue(room func(n int) ([]byte, error), b int) error {
	h := packet.TrioML{JobID: r.cfg.JobID, BlockID: uint32(b), SrcID: r.cfg.SrcID, GenID: r.gen, Final: b == len(r.got)-1}
	lo, hi := r.span(b)
	return putContribution(room, h, r.grads[lo:hi])
}

// putContribution marshals one contribution into the room room hands back.
func putContribution(room func(n int) ([]byte, error), h packet.TrioML, grads []int32) error {
	if len(grads) > packet.MaxGradientsPerPacket {
		return fmt.Errorf("hostagg: %d gradients exceeds packet max %d", len(grads), packet.MaxGradientsPerPacket)
	}
	p, err := room(packet.TrioMLHeaderLen + 4*len(grads))
	if err == nil {
		AppendBlock(p[:0], h, grads) // exactly len(p) bytes: filled in place
	}
	return err
}

// AppendBlock appends one block's datagram, a worker's contribution or the
// server's result, to dst: the Trio-ML header h with GradCnt set, then the
// gradients.
func AppendBlock(dst []byte, h packet.TrioML, grads []int32) []byte {
	at, n := len(dst), packet.TrioMLHeaderLen+4*len(grads)
	dst = slices.Grow(dst, n)[:at+n]
	h.GradCnt = uint16(len(grads))
	h.MarshalTo(dst[at:])
	packet.PutGradients(dst[at+packet.TrioMLHeaderLen:], grads)
	return dst
}
