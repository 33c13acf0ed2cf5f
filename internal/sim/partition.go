package sim

import (
	"fmt"
	"sort"
	"sync"

	"github.com/trioml/triogo/internal/obs"
)

// This file implements partitioned parallel discrete-event simulation with
// conservative lookahead synchronization.
//
// A Cluster owns P Engines ("partitions"). Each partition keeps its own event
// slab, timer wheel, heap, and sequence counter, and is executed by exactly
// one goroutine, so every existing single-threaded component (PFE, links,
// aggregator, clients) runs unmodified inside a partition. Partitions
// interact only through timestamped Messages posted into the destination
// partition's inbox — in this repository, netsim link deliveries on
// partition-crossing links (netsim.Sink.Link).
//
// Synchronization is the classic conservative time-window scheme: every
// cross-partition channel promises a minimum delay (for links, the
// propagation time, >= 500 ns on the testbed's cables), and the cluster-wide
// lookahead L is the minimum of those promises. Each round the coordinator
// computes T, the earliest pending event across all partitions, and lets
// every partition execute its events with timestamps in [T, T+L) in
// parallel. An event at time t >= T can only emit messages arriving at
// t + delay >= T + L, i.e. beyond the window, so no partition can receive a
// message in its causal past and no rollback is ever needed.
//
// Determinism contract. A cluster's result is a pure function of (model,
// seed, partition assignment) — never of thread scheduling: the window
// boundaries depend only on global event-queue state, each partition executes
// its window serially in (time, seq) order, and inbox flushes sort messages
// by (SendTime, Chan, Seq) before insertion. The flush order is chosen to
// reproduce the schedule-call order a single shared engine would have used —
// messages sent in earlier windows are flushed at earlier barriers (hence
// earlier sequence numbers, exactly as earlier Send calls draw earlier seqs
// on one engine), and messages sent inside one window are inserted in
// send-time order with the channel's construction index breaking ties. The
// harness pins this with a cross-partition determinism test: the fig15 rig
// renders byte-identically for any partition count at the same seed.
type Cluster struct {
	parts     []*Engine
	inboxes   []inbox
	stats     []PartitionStats
	lookahead Time
	chanKeys  uint64
}

// Message is one cross-partition event: Fn(Arg) runs in the destination
// partition at virtual time At.
//
// SendTime, Chan, and Seq define the deterministic merge order of messages
// that share a destination: flushed batches are sorted by (SendTime, Chan,
// Seq) before insertion, so two messages arriving at the same instant execute
// in the order their sends happened (by virtual send time, then by channel
// construction order for sends at the same instant in different partitions,
// then by per-channel send order).
type Message struct {
	At       Time   // execution timestamp in the destination partition
	SendTime Time   // sender's clock when the message was posted
	Chan     uint64 // channel key from NewChannelKey (construction order)
	Seq      uint64 // per-channel monotone send counter
	Fn       EventFunc
	Arg      any
}

// inbox is one partition's MPSC mailbox. Senders append under the mutex from
// their own goroutines; the owner drains it at window barriers.
type inbox struct {
	mu   sync.Mutex
	msgs []Message
	peak int
}

// PartitionStats is one partition's synchronization self-instrumentation.
type PartitionStats struct {
	Advances     uint64 // windows in which the partition executed >= 1 event
	BarrierWaits uint64 // windows in which it only waited at the barrier
	Messages     uint64 // cross-partition messages flushed into it
}

// NewCluster builds n partitions, each a fully independent Engine. Engines
// are created by the cluster and report their placement via Engine.Partition.
func NewCluster(n int) *Cluster {
	if n < 1 {
		panic("sim: NewCluster requires at least one partition")
	}
	c := &Cluster{
		parts:   make([]*Engine, n),
		inboxes: make([]inbox, n),
		stats:   make([]PartitionStats, n),
	}
	for i := range c.parts {
		e := NewEngine()
		e.cluster = c
		e.pid = i
		c.parts[i] = e
	}
	return c
}

// Partitions reports the partition count.
func (c *Cluster) Partitions() int { return len(c.parts) }

// Engine returns partition i's engine.
func (c *Cluster) Engine(i int) *Engine { return c.parts[i] }

// Lookahead reports the conservative window width: the minimum delay promised
// by any registered cross-partition channel (0 until one is registered).
func (c *Cluster) Lookahead() Time { return c.lookahead }

// RegisterCrossDelay records a cross-partition channel's minimum
// send-to-arrival delay and shrinks the cluster lookahead to it if smaller.
// A non-positive delay would collapse the safe window to nothing, so it
// panics: partition boundaries must be drawn across real propagation delay.
func (c *Cluster) RegisterCrossDelay(d Time) {
	if d <= 0 {
		panic("sim: cross-partition channels need positive delay (lookahead)")
	}
	if c.lookahead == 0 || d < c.lookahead {
		c.lookahead = d
	}
}

// NewChannelKey allocates the next channel key. Keys order same-instant
// senders during inbox merges, so channels must be allocated during
// single-threaded construction (wiring order is part of the model).
func (c *Cluster) NewChannelKey() uint64 {
	c.chanKeys++
	return c.chanKeys
}

// Post enqueues a message into partition dst's inbox. It may be called from
// the destination's neighbors' goroutines during a window, or from the
// driving goroutine before Run starts (initial sends at time zero).
func (c *Cluster) Post(dst int, m Message) {
	if dst < 0 || dst >= len(c.parts) {
		panic(fmt.Sprintf("sim: Post to partition %d of %d", dst, len(c.parts)))
	}
	ib := &c.inboxes[dst]
	ib.mu.Lock()
	ib.msgs = append(ib.msgs, m)
	if len(ib.msgs) > ib.peak {
		ib.peak = len(ib.msgs)
	}
	ib.mu.Unlock()
}

// flush drains partition i's inbox into its event queue in deterministic
// (SendTime, Chan, Seq) order. Called by the partition's own goroutine at a
// barrier, when all neighbors are parked.
func (c *Cluster) flush(i int) {
	ib := &c.inboxes[i]
	ib.mu.Lock()
	batch := ib.msgs
	ib.msgs = nil
	ib.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	sort.Slice(batch, func(a, b int) bool {
		ma, mb := &batch[a], &batch[b]
		if ma.SendTime != mb.SendTime {
			return ma.SendTime < mb.SendTime
		}
		if ma.Chan != mb.Chan {
			return ma.Chan < mb.Chan
		}
		return ma.Seq < mb.Seq
	})
	eng := c.parts[i]
	for k := range batch {
		m := &batch[k]
		eng.AtFunc(m.At, m.Fn, m.Arg)
	}
	c.stats[i].Messages += uint64(len(batch))
}

// workerCmd drives one partition goroutine through the two phases of a
// window round: flush-and-report, then execute-to-horizon.
type workerCmd struct {
	run     bool // false: flush inbox and report next event time
	horizon Time // run phase: execute events with at <= horizon
}

type workerRep struct {
	pid  int
	next Time
	ok   bool
}

// Run executes the cluster until no live events or inbox messages remain,
// until stop (checked at every window barrier, when all partitions are
// quiescent) reports true, or until the next global event would pass
// deadline. With one partition it degenerates to the plain serial step loop,
// checking stop before every event — bit-identical to driving the engine
// directly.
func (c *Cluster) Run(stop func() bool, deadline Time) {
	if len(c.parts) == 1 {
		eng := c.parts[0]
		c.flush(0)
		for stop == nil || !stop() {
			if !eng.Step() || eng.Now() > deadline {
				break
			}
		}
		return
	}
	if c.lookahead <= 0 {
		panic("sim: Cluster.Run with multiple partitions needs a registered cross-partition delay")
	}

	n := len(c.parts)
	cmds := make([]chan workerCmd, n)
	rep := make(chan workerRep, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cmds[i] = make(chan workerCmd)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng := c.parts[i]
			st := &c.stats[i]
			for cmd := range cmds[i] {
				if !cmd.run {
					c.flush(i)
					t, ok := eng.peek()
					rep <- workerRep{pid: i, next: t, ok: ok}
					continue
				}
				before := eng.executed
				eng.RunUntil(cmd.horizon)
				if eng.executed > before {
					st.Advances++
				} else {
					st.BarrierWaits++
				}
				rep <- workerRep{pid: i}
			}
		}(i)
	}
	shutdown := func() {
		for i := range cmds {
			close(cmds[i])
		}
		wg.Wait()
	}

	for {
		// Barrier A: flush every inbox, gather the global minimum next
		// event time. Inboxes are empty afterwards and no partition is
		// executing, so "no event anywhere" means the simulation is over.
		for i := range cmds {
			cmds[i] <- workerCmd{}
		}
		var minT Time
		any := false
		for range cmds {
			r := <-rep
			if r.ok && (!any || r.next < minT) {
				minT = r.next
				any = true
			}
		}
		if !any || (stop != nil && stop()) || minT > deadline {
			shutdown()
			return
		}
		// Window: every partition executes its events in [minT, minT+L).
		// Anything those events send arrives at >= minT+L, beyond the
		// window, so intra-window execution is embarrassingly parallel.
		horizon := minT + c.lookahead - 1
		for i := range cmds {
			cmds[i] <- workerCmd{run: true, horizon: horizon}
		}
		for range cmds {
			<-rep
		}
	}
}

// Stats returns a copy of partition i's synchronization counters.
func (c *Cluster) Stats(i int) PartitionStats { return c.stats[i] }

// RegisterObs exports per-partition synchronization metrics. Like the
// engine's own series, the func-backed counters read worker-owned fields
// without atomics; scrape only when the cluster is quiescent (after Run
// returns, which is when cmd/triobench -metrics dumps).
func (c *Cluster) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc(obs.Desc{
		Name: "triogo_sim_partition_lookahead_ns", Unit: "ns",
		Help: "Conservative window width: min cross-partition link propagation delay.",
	}, func() float64 { return float64(c.lookahead) })
	for i := range c.parts {
		i := i
		lbl := fmt.Sprintf(`partition="%d"`, i)
		r.CounterFunc(obs.Desc{
			Name: "triogo_sim_partition_advances_total", Labels: lbl, Unit: "windows",
			Help: "Lookahead windows in which this partition executed at least one event.",
		}, func() uint64 { return c.stats[i].Advances })
		r.CounterFunc(obs.Desc{
			Name: "triogo_sim_partition_barrier_waits_total", Labels: lbl, Unit: "windows",
			Help: "Lookahead windows this partition spent only waiting at the barrier.",
		}, func() uint64 { return c.stats[i].BarrierWaits })
		r.CounterFunc(obs.Desc{
			Name: "triogo_sim_partition_msgs_total", Labels: lbl, Unit: "messages",
			Help: "Cross-partition messages flushed into this partition's event queue.",
		}, func() uint64 { return c.stats[i].Messages })
		r.GaugeFunc(obs.Desc{
			Name: "triogo_sim_partition_inbox_depth", Labels: lbl, Unit: "messages",
			Help: "Messages waiting in this partition's inbox (0 when quiescent).",
		}, func() float64 {
			ib := &c.inboxes[i]
			ib.mu.Lock()
			d := len(ib.msgs)
			ib.mu.Unlock()
			return float64(d)
		})
		r.GaugeFunc(obs.Desc{
			Name: "triogo_sim_partition_inbox_depth_peak", Labels: lbl, Unit: "messages",
			Help: "High-water inbox depth.",
		}, func() float64 {
			ib := &c.inboxes[i]
			ib.mu.Lock()
			p := ib.peak
			ib.mu.Unlock()
			return float64(p)
		})
	}
}
