package pfe

import (
	"fmt"

	"github.com/trioml/triogo/internal/obs"
)

// RegisterObs exports the PFE's counters into a metrics registry, labelled
// pfe="<id>" so a multi-PFE chassis keeps its engines apart. The
// func-backed series read simulator state; scrape when the simulation is
// quiescent (see sim.Engine.RegisterObs). The shared-memory system's
// series are registered alongside via Mem.RegisterObs.
func (p *PFE) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	l := fmt.Sprintf("pfe=%q", fmt.Sprint(p.Cfg.ID))
	counter := func(name, unit, help string, fn func() uint64) {
		r.CounterFunc(obs.Desc{Name: name, Unit: unit, Help: help, Labels: l}, fn)
	}
	gauge := func(name, unit, help string, fn func() float64) {
		r.GaugeFunc(obs.Desc{Name: name, Unit: unit, Help: help, Labels: l}, fn)
	}
	counter("triogo_pfe_packets_dispatched_total", "packets",
		"Packets split into head and tail and handed to a PPE thread.",
		func() uint64 { return p.stats.Dispatched })
	counter("triogo_pfe_packets_forwarded_total", "packets",
		"Packets whose thread verdict was forward.",
		func() uint64 { return p.stats.Forwarded })
	counter("triogo_pfe_packets_dropped_total", "packets",
		"Packets whose thread verdict was drop.",
		func() uint64 { return p.stats.Dropped })
	counter("triogo_pfe_packets_consumed_total", "packets",
		"Packets absorbed into shared state (aggregation contributions).",
		func() uint64 { return p.stats.Consumed })
	counter("triogo_pfe_packets_emitted_total", "packets",
		"New packets created by applications (aggregation results).",
		func() uint64 { return p.stats.Emitted })
	counter("triogo_pfe_timer_firings_total", "firings",
		"Timer-thread work items executed on the PPE pool.",
		func() uint64 { return p.stats.TimerFirings })
	counter("triogo_pfe_instructions_total", "instructions",
		"Micro-instructions charged by PPE threads.",
		func() uint64 { return p.stats.Instructions })
	counter("triogo_pfe_bytes_out_total", "bytes",
		"Bytes serialized onto egress ports.",
		func() uint64 { return p.stats.BytesOut })
	gauge("triogo_pfe_work_queue_depth", "items",
		"Dispatch work items waiting for a free PPE thread.",
		func() float64 { return float64(len(p.queue) - p.qhead) })
	gauge("triogo_pfe_work_queue_depth_peak", "items",
		"High-water dispatch queue depth.",
		func() float64 { return float64(p.stats.MaxQueued) })
	gauge("triogo_pfe_busy_threads", "threads",
		"PPE threads currently executing.",
		func() float64 { return float64(p.BusyThreads()) })
	gauge("triogo_pfe_busy_threads_peak", "threads",
		"High-water busy PPE thread count.",
		func() float64 { return float64(p.stats.PeakBusy) })
	gauge("triogo_pfe_thread_capacity", "threads",
		"Total PPE thread pool size (pfe.Threads = NumPPEs x ThreadsPerPPE).",
		func() float64 { return Threads })
	gauge("triogo_pfe_thread_utilization_peak", "fraction",
		"Peak busy threads over capacity: per-PPE utilization high-water.",
		func() float64 { return float64(p.stats.PeakBusy) / Threads })
}

// SetTrace attaches a chrome-trace recorder. Every PFE span lands in the
// trace's process p.Cfg.ID: dispatch queueing on tid 0, PPE thread
// occupancy on tid 1..cap (the index of the busy slot, so stacked tracks
// read as pool utilization), RMW/hash/packet-buffer XTXNs on the issuing
// thread's track, and egress serialization on tid egressTidBase+port.
// Pass nil to detach.
func (p *PFE) SetTrace(t *obs.Trace) {
	p.trace = t
	if t == nil {
		return
	}
	pid := int64(p.Cfg.ID)
	t.ProcessName(pid, fmt.Sprintf("pfe%d", p.Cfg.ID))
	t.ThreadName(pid, 0, "dispatch")
	for port := 0; port < p.Cfg.NumPorts; port++ {
		t.ThreadName(pid, egressTidBase+int64(port), fmt.Sprintf("egress port %d", port))
	}
}

// egressTidBase keeps egress tracks clear of the PPE slot tracks (tid
// 1..pool.cap; the pool caps out well below this).
const egressTidBase int64 = 1 << 20
