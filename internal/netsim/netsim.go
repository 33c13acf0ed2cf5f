// Package netsim models the cabling of the testbed in §6.1: point-to-point
// links with configurable bandwidth and propagation delay connecting server
// NICs to router ports. Links account serialization (bytes × 8 / rate) and
// queue frames FIFO, which is all the evaluation's shape depends on.
package netsim

import (
	"github.com/trioml/triogo/internal/faults"
	"github.com/trioml/triogo/internal/sim"
)

// LinkConfig parameterizes one unidirectional link.
type LinkConfig struct {
	Bandwidth   uint64   // bits per second; default 100 Gbps (ConnectX5/MX ports)
	Propagation sim.Time // default 500 ns (in-rack fiber + NIC/PHY)

	// LossProb drops each frame independently with this probability after
	// serialization (the sender spent the bandwidth; the frame never
	// arrives) — the transient-congestion loss §7 discusses. LossSeed
	// seeds the deterministic drop stream.
	LossProb float64
	LossSeed uint64

	// Faults attaches a fault injector for corruption, duplication,
	// reordering, and link-flap windows; nil leaves the link fault-free
	// (the default) with no change to timing or the loss stream.
	Faults *faults.LinkInjector
}

// DefaultLinkConfig returns the testbed's 100 Gbps operating point.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{Bandwidth: 100_000_000_000, Propagation: 500 * sim.Nanosecond}
}

// Receiver consumes frames at their virtual arrival time.
type Receiver func(frame []byte, at sim.Time)

// Link is a unidirectional serialized link.
type Link struct {
	cfg    LinkConfig
	eng    *sim.Engine
	dst    Receiver
	freeAt sim.Time
	// freeRem is the sub-nanosecond tail of the serialization end time, as a
	// numerator over cfg.Bandwidth: the link is exactly free at
	// freeAt + freeRem/Bandwidth. Carrying it keeps back-to-back bursts
	// accounting exact aggregate bandwidth instead of truncating up to a
	// nanosecond per frame (at 100 Gbps a 187-byte frame loses ~0.96 ns).
	freeRem uint64
	loss    *sim.RNG

	// inflight holds the frames of scheduled in-order arrivals, oldest at
	// qhead. Arrival instants never decrease in send order and the engine
	// breaks ties FIFO, so each arrival event takes the oldest frame and no
	// per-frame event record exists.
	inflight [][]byte
	qhead    int

	// cross is nil unless the receiver runs on another partition. It sits
	// behind a pointer because a tree has two links per simulated worker and
	// nearly all of them are local: TestLinkStaysSmall.
	cross *crossing

	Frames  uint64
	Bytes   uint64
	Dropped uint64

	// Injected-fault outcomes (0 without LinkConfig.Faults).
	FlapDropped uint64
	Corrupted   uint64
	Duplicated  uint64
	Reordered   uint64
}

// arriveEvent delivers the link's oldest in-flight frame; the event's own
// time is the arrival instant.
func arriveEvent(arg any) {
	l := arg.(*Link)
	frame := l.inflight[l.qhead]
	l.inflight[l.qhead] = nil
	if l.qhead++; l.qhead == len(l.inflight) {
		l.inflight, l.qhead = l.inflight[:0], 0
	}
	l.dst(frame, l.eng.Now())
}

// pushInflight queues a frame behind the in-flight ones. The queue is made on
// the first send (an idle link costs nothing) with room for two: most links
// carry a frame or two at a time. A link that never runs empty reclaims its
// delivered prefix here instead of growing for ever.
func (l *Link) pushInflight(frame []byte) {
	if l.inflight == nil {
		l.inflight = make([][]byte, 0, 2)
	}
	if len(l.inflight) == cap(l.inflight) && l.qhead > len(l.inflight)/2 {
		n := copy(l.inflight, l.inflight[l.qhead:])
		clear(l.inflight[n:])
		l.inflight, l.qhead = l.inflight[:n], 0
	}
	l.inflight = append(l.inflight, frame)
}

// lateDelivery carries a frame a fault injector took out of the link's FIFO
// order (a duplicate, a reordered original), so it cannot wait in the queue.
type lateDelivery struct {
	l     *Link
	frame []byte
}

func lateArriveEvent(arg any) {
	d := arg.(*lateDelivery)
	d.l.dst(d.frame, d.l.eng.Now())
}

// NewLink builds a link delivering to dst. A zero Bandwidth takes the
// 100 Gbps default; zero Propagation genuinely means zero (use
// DefaultLinkConfig for the testbed's 500 ns).
func NewLink(eng *sim.Engine, cfg LinkConfig, dst Receiver) *Link {
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = DefaultLinkConfig().Bandwidth
	}
	l := &Link{cfg: cfg, eng: eng, dst: dst}
	if cfg.LossProb > 0 {
		l.loss = sim.NewRNG(cfg.LossSeed, 0x10557)
	}
	return l
}

// NewLinkBetween builds a link whose sender lives on src and whose receiver
// runs on dst — the partition-crossing form for partitioned clusters (see
// sim.Cluster). Serialization state (the shared cable) is owned by the
// sending partition; the arrival is posted as a timestamped message into the
// receiving partition's inbox, and the link's propagation delay is registered
// as a cross-partition lookahead bound. With src == dst (or a nil dst) this
// is exactly NewLink.
func NewLinkBetween(src, dst *sim.Engine, cfg LinkConfig, recv Receiver) *Link {
	l := NewLink(src, cfg, recv)
	if dst == nil || dst == src {
		return l
	}
	cl := src.Cluster()
	if cl == nil || cl != dst.Cluster() {
		panic("netsim: NewLinkBetween requires engines of the same sim.Cluster")
	}
	if src.Partition() == dst.Partition() {
		return l
	}
	// The propagation delay is the conservative lookahead this channel
	// promises; RegisterCrossDelay rejects zero, which would collapse the
	// safe window (use DefaultLinkConfig's 500 ns cable).
	cl.RegisterCrossDelay(l.cfg.Propagation)
	l.cross = &crossing{cluster: cl, dstPID: dst.Partition(), chanKey: cl.NewChannelKey()}
	return l
}

// Send enqueues a frame for transmission now; the receiver sees it after
// queueing, serialization, and propagation.
func (l *Link) Send(frame []byte) {
	now := l.eng.Now()
	base, rem := l.freeAt, l.freeRem
	if now > base || (now == base && rem == 0) {
		// Link idle: the burst (and its fractional credit) starts fresh.
		base, rem = now, 0
	}
	num := rem + uint64(len(frame))*8*uint64(sim.Second)
	depart := base + sim.Time(num/l.cfg.Bandwidth)
	l.freeAt, l.freeRem = depart, num%l.cfg.Bandwidth
	arrive := depart + l.cfg.Propagation
	l.Frames++
	l.Bytes += uint64(len(frame))
	if l.loss != nil && l.loss.Bernoulli(l.cfg.LossProb) {
		l.Dropped++
		return
	}
	if l.cfg.Faults != nil {
		v := l.cfg.Faults.Decide(base, len(frame)*8)
		if v.Drop {
			l.FlapDropped++
			return
		}
		if v.CorruptBit >= 0 {
			// Flip one bit in a copy: the caller's bytes may be aliased by
			// other links (multicast) or retransmit buffers.
			l.Corrupted++
			corrupted := append([]byte(nil), frame...)
			corrupted[v.CorruptBit/8] ^= 1 << (v.CorruptBit % 8)
			frame = corrupted
		}
		if v.Duplicate {
			// The duplicate is offset from the fault-free arrival: a frame
			// that is also reordered must not compound both delays.
			l.Duplicated++
			l.deliver(frame, arrive+v.DupDelay, true)
		}
		if v.ExtraDelay > 0 {
			l.Reordered++
			l.deliver(frame, arrive+v.ExtraDelay, true)
			return
		}
	}
	l.deliver(frame, arrive, false)
}

// crossing is the cross-partition half of a link (see NewLinkBetween): an
// arrival becomes a timestamped message into the destination partition's
// inbox instead of a local event.
type crossing struct {
	cluster *sim.Cluster
	dstPID  int
	chanKey uint64
	sendSeq uint64
}

// crossDelivery carries one frame into another partition. Unlike the local
// delivery pool, records cross goroutines exactly once and are not recycled.
type crossDelivery struct {
	l     *Link
	frame []byte
	at    sim.Time
}

func crossArriveEvent(arg any) {
	d := arg.(*crossDelivery)
	d.l.dst(d.frame, d.at)
}

// deliver schedules one arrival: a local event on the link's own engine, or a
// timestamped inbox message for a partition-crossing link. late marks an
// arrival outside the link's FIFO order: a duplicate, or an original a fault
// pushed past its fault-free instant, which later sends may overtake.
func (l *Link) deliver(frame []byte, arrive sim.Time, late bool) {
	if x := l.cross; x != nil {
		// The sender may reuse its frame buffer as soon as Send returns
		// (clients marshal in place), so the crossing copy detaches it.
		x.sendSeq++
		x.cluster.Post(x.dstPID, sim.Message{
			At: arrive, SendTime: l.eng.Now(), Chan: x.chanKey, Seq: x.sendSeq,
			Fn:  crossArriveEvent,
			Arg: &crossDelivery{l: l, frame: append([]byte(nil), frame...), at: arrive},
		})
		return
	}
	if late {
		l.eng.AtFunc(arrive, lateArriveEvent, &lateDelivery{l: l, frame: frame})
		return
	}
	l.pushInflight(frame)
	l.eng.AtFunc(arrive, arriveEvent, l)
}

// Busy reports whether the link is still serializing previously sent frames,
// including the sub-nanosecond tail of the last one.
func (l *Link) Busy() bool {
	now := l.eng.Now()
	return l.freeAt > now || (l.freeAt == now && l.freeRem > 0)
}

// FreeAt reports the first nanosecond at which the link is idle: the exact
// serialization end, rounded up when it falls between nanoseconds.
func (l *Link) FreeAt() sim.Time {
	if l.freeRem > 0 {
		return l.freeAt + 1
	}
	return l.freeAt
}
