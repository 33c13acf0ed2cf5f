// Package netsim models the cabling of the testbed in §6.1: point-to-point
// links with configurable bandwidth and propagation delay connecting server
// NICs to router ports. Links account serialization (bytes × 8 / rate) and
// queue frames FIFO, which is all the evaluation's shape depends on.
//
// A link is plain data, because a 10^5-worker tree has 2×10^5 of them. What
// the links of one kind share — the sending engine, bandwidth, propagation
// and receiver — lives once in their kind; the receiver is told the port tag
// each link was built with, so one Sink serves every link into a PFE or
// every downlink of a worker bank. Loss, faults and partition crossing live
// behind one pointer that is nil on a plain link.
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

// PortReceiver consumes frames at their virtual arrival time, told which
// port delivered them: the tag the link was built with. One PortReceiver
// serves every link into a PFE (the tag is the PFE port) or every downlink
// of a worker bank (the tag is the worker).
type PortReceiver func(port int, frame []byte, at sim.Time)

// Sink is one receiver that many links deliver to, each link with its own
// port tag. The links a sink builds on the same sending engine with the same
// bandwidth and propagation share one kind, so a link itself holds only its
// serialization clock, its in-flight frames and its counters.
type Sink struct {
	eng   *sim.Engine // where the receiver runs
	recv  PortReceiver
	kinds []*kind
}

// NewSink returns the sink that delivers to recv on eng.
func NewSink(eng *sim.Engine, recv PortReceiver) *Sink {
	return &Sink{eng: eng, recv: recv}
}

// kind is the fixed part every link of one kind shares: the engine that
// serializes and schedules its frames, its rate and delay, and the receiver.
type kind struct {
	eng         *sim.Engine
	bandwidth   uint64
	propagation sim.Time
	recv        PortReceiver
}

// Link is a unidirectional serialized link.
type Link struct {
	k      *kind
	port   int // the tag k.recv is told
	freeAt sim.Time
	// freeRem is the sub-nanosecond tail of the serialization end time, as a
	// numerator over the bandwidth: the link is exactly free at
	// freeAt + freeRem/bandwidth. Carrying it keeps back-to-back bursts
	// accounting exact aggregate bandwidth instead of truncating up to a
	// nanosecond per frame (at 100 Gbps a 187-byte frame loses ~0.96 ns).
	freeRem uint64

	// inflight holds the frames of scheduled in-order arrivals, oldest at
	// qhead. Arrival instants never decrease in send order and the engine
	// breaks ties FIFO, so each arrival event takes the oldest frame and no
	// per-frame event record exists.
	inflight [][]byte
	qhead    int

	// hz is nil on a plain link. It sits behind a pointer because a tree has
	// two links per simulated worker and nearly all of them are local,
	// lossless and fault-free: TestLinkStaysSmall.
	hz *hazards

	Frames  uint64
	Bytes   uint64
	Dropped uint64
}

// hazards is what only a lossy, faulty or partition-crossing link carries.
type hazards struct {
	loss     *sim.RNG // nil without LinkConfig.LossProb
	lossProb float64
	faults   *faults.LinkInjector
	cross    crossing     // cluster nil unless the receiver runs on another partition
	counts   faults.Stats // the Link* counters of what faults did
}

// Faults returns what the link's fault injector did: its flap drops,
// corruptions, duplicates and reorders in the Link* fields, the rest zero
// (all zero without LinkConfig.Faults).
func (l *Link) Faults() faults.Stats {
	if l.hz == nil {
		return faults.Stats{}
	}
	return l.hz.counts
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
	l.k.recv(l.port, frame, l.k.eng.Now())
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
	d.l.k.recv(d.l.port, d.frame, d.l.k.eng.Now())
}

// Link builds a link from an engine to the sink, delivering with port tag
// port. A zero Bandwidth takes the 100 Gbps default; zero Propagation
// genuinely means zero (use DefaultLinkConfig for the testbed's 500 ns).
// When src runs on another partition of the sink's sim.Cluster, the link
// crosses partitions: serialization state (the shared cable) is owned by the
// sending partition, the arrival is posted as a timestamped message into the
// receiving partition's inbox, and the propagation delay is registered as a
// cross-partition lookahead bound.
func (s *Sink) Link(src *sim.Engine, cfg LinkConfig, port int) *Link {
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = DefaultLinkConfig().Bandwidth
	}
	l := &Link{k: s.kind(src, cfg), port: port}
	if cfg.LossProb > 0 || cfg.Faults != nil {
		l.hz = &hazards{lossProb: cfg.LossProb, faults: cfg.Faults}
		if cfg.LossProb > 0 {
			l.hz.loss = sim.NewRNG(cfg.LossSeed, 0x10557)
		}
	}
	if src == s.eng || s.eng == nil {
		return l
	}
	cl := src.Cluster()
	if cl == nil || cl != s.eng.Cluster() {
		panic("netsim: a link between engines requires engines of the same sim.Cluster")
	}
	if src.Partition() == s.eng.Partition() {
		return l
	}
	// The propagation delay is the conservative lookahead this channel
	// promises; RegisterCrossDelay rejects zero, which would collapse the
	// safe window (use DefaultLinkConfig's 500 ns cable).
	cl.RegisterCrossDelay(cfg.Propagation)
	if l.hz == nil {
		l.hz = &hazards{}
	}
	l.hz.cross = crossing{cluster: cl, dstPID: s.eng.Partition(), chanKey: cl.NewChannelKey()}
	return l
}

// kind returns the sink's kind for links sent from src at cfg's bandwidth and
// propagation, making it on first use. A sink sees one or two of them.
func (s *Sink) kind(src *sim.Engine, cfg LinkConfig) *kind {
	for _, k := range s.kinds {
		if k.eng == src && k.bandwidth == cfg.Bandwidth && k.propagation == cfg.Propagation {
			return k
		}
	}
	k := &kind{eng: src, bandwidth: cfg.Bandwidth, propagation: cfg.Propagation, recv: s.recv}
	s.kinds = append(s.kinds, k)
	return k
}

// NewLink builds a link on eng delivering to dst, a sink of its own: the
// form for a rig that builds a lone link.
func NewLink(eng *sim.Engine, cfg LinkConfig, dst Receiver) *Link {
	return NewSink(eng, func(_ int, f []byte, at sim.Time) { dst(f, at) }).Link(eng, cfg, 0)
}

// Send enqueues a frame for transmission now; the receiver sees it after
// queueing, serialization, and propagation.
func (l *Link) Send(frame []byte) {
	k := l.k
	now := k.eng.Now()
	base, rem := l.freeAt, l.freeRem
	if now > base || (now == base && rem == 0) {
		// Link idle: the burst (and its fractional credit) starts fresh.
		base, rem = now, 0
	}
	num := rem + uint64(len(frame))*8*uint64(sim.Second)
	depart := base + sim.Time(num/k.bandwidth)
	l.freeAt, l.freeRem = depart, num%k.bandwidth
	arrive := depart + k.propagation
	l.Frames++
	l.Bytes += uint64(len(frame))
	if hz := l.hz; hz != nil {
		if hz.loss != nil && hz.loss.Bernoulli(hz.lossProb) {
			l.Dropped++
			return
		}
		if hz.faults != nil {
			v := hz.faults.Decide(base, len(frame)*8)
			if v.Drop {
				hz.counts.LinkFlapDrops++
				return
			}
			if v.CorruptBit >= 0 {
				// Flip one bit in a copy: the caller's bytes may be aliased
				// by other links (multicast) or retransmit buffers.
				hz.counts.LinkCorruptions++
				corrupted := append([]byte(nil), frame...)
				corrupted[v.CorruptBit/8] ^= 1 << (v.CorruptBit % 8)
				frame = corrupted
			}
			if v.Duplicate {
				// The duplicate is offset from the fault-free arrival: a
				// frame that is also reordered must not compound both
				// delays.
				hz.counts.LinkDuplicates++
				l.deliver(frame, arrive+v.DupDelay, true)
			}
			if v.ExtraDelay > 0 {
				hz.counts.LinkReorders++
				l.deliver(frame, arrive+v.ExtraDelay, true)
				return
			}
		}
	}
	l.deliver(frame, arrive, false)
}

// crossing is the cross-partition half of a link (see Sink.Link): an
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
	d.l.k.recv(d.l.port, d.frame, d.at)
}

// deliver schedules one arrival: a local event on the link's own engine, or a
// timestamped inbox message for a partition-crossing link. late marks an
// arrival outside the link's FIFO order: a duplicate, or an original a fault
// pushed past its fault-free instant, which later sends may overtake.
func (l *Link) deliver(frame []byte, arrive sim.Time, late bool) {
	eng := l.k.eng
	if hz := l.hz; hz != nil && hz.cross.cluster != nil {
		// The sender may reuse its frame buffer as soon as Send returns
		// (clients marshal in place), so the crossing copy detaches it.
		x := &hz.cross
		x.sendSeq++
		x.cluster.Post(x.dstPID, sim.Message{
			At: arrive, SendTime: eng.Now(), Chan: x.chanKey, Seq: x.sendSeq,
			Fn:  crossArriveEvent,
			Arg: &crossDelivery{l: l, frame: append([]byte(nil), frame...), at: arrive},
		})
		return
	}
	if late {
		eng.AtFunc(arrive, lateArriveEvent, &lateDelivery{l: l, frame: frame})
		return
	}
	l.pushInflight(frame)
	eng.AtFunc(arrive, arriveEvent, l)
}

// Busy reports whether the link is still serializing previously sent frames,
// including the sub-nanosecond tail of the last one.
func (l *Link) Busy() bool {
	now := l.k.eng.Now()
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
