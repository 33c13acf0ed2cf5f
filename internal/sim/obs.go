package sim

import "github.com/trioml/triogo/internal/obs"

// RegisterObs exports the engine's self-instrumentation (the Metrics
// struct) into a metrics registry and attaches a schedule-lead-time
// histogram to the scheduling path.
//
// The func-backed series read engine fields without synchronization: the
// engine is single-threaded by design, so scrape only when the simulation
// is quiescent (between Step calls or after Run returns), which is what
// cmd/triobench -metrics does. The histogram itself is atomic, so its
// Observe on the schedule path is both safe and allocation-free; with a
// nil registry the path costs one nil check and stays at 0 allocs/op
// (BenchmarkEngineScheduleFireArg, TestSchedulePathAllocs).
func (e *Engine) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc(obs.Desc{
		Name: "triogo_sim_events_scheduled_total", Unit: "events",
		Help: "Events accepted by At/After/Every and their Func forms.",
	}, func() uint64 { return e.m.Scheduled })
	r.CounterFunc(obs.Desc{
		Name: "triogo_sim_events_executed_total", Unit: "events",
		Help: "Live events fired.",
	}, func() uint64 { return e.executed })
	r.CounterFunc(obs.Desc{
		Name: "triogo_sim_events_rearmed_total", Unit: "events",
		Help: "Periodic re-arms (allocation-free slot reuse).",
	}, func() uint64 { return e.m.Rearmed })
	r.CounterFunc(obs.Desc{
		Name: "triogo_sim_events_cancelled_total", Unit: "events",
		Help: "Handle.Stop calls that hit a still-pending event.",
	}, func() uint64 { return e.m.Cancelled })
	r.CounterFunc(obs.Desc{
		Name: "triogo_sim_wheel_inserts_total", Unit: "events",
		Help: "Enqueues absorbed by the timer wheel (O(1) list pushes).",
	}, func() uint64 { return e.m.WheelInserts })
	r.CounterFunc(obs.Desc{
		Name: "triogo_sim_heap_inserts_total", Unit: "events",
		Help: "Events enqueued or drained from the wheel into heap runs.",
	}, func() uint64 { return e.m.HeapInserts })
	r.GaugeFunc(obs.Desc{
		Name: "triogo_sim_pending_events", Unit: "events",
		Help: "Live events scheduled but not yet executed.",
	}, func() float64 { return float64(e.live) })
	r.GaugeFunc(obs.Desc{
		Name: "triogo_sim_pending_events_peak", Unit: "events",
		Help: "High-water live event count.",
	}, func() float64 { return float64(e.m.PeakPending) })
	r.GaugeFunc(obs.Desc{
		Name: "triogo_sim_heap_depth_peak", Unit: "events",
		Help: "High-water count of queued events outside the wheel (wheel-overflow pressure).",
	}, func() float64 { return float64(e.m.PeakHeap) })
	r.GaugeFunc(obs.Desc{
		Name: "triogo_sim_slab_slots_peak", Unit: "slots",
		Help: "High-water allocated event slots (slab size).",
	}, func() float64 { return float64(e.m.SlabPeak) })
	r.GaugeFunc(obs.Desc{
		Name: "triogo_sim_virtual_time_ns", Unit: "ns",
		Help: "Current virtual clock.",
	}, func() float64 { return float64(e.now) })
	e.leadHist = r.Histogram(obs.Desc{
		Name: "triogo_sim_schedule_lead_ns", Unit: "ns",
		Help: "How far ahead of the clock events are scheduled (t - now); the wheel horizon is 33.6e6 ns.",
	}, obs.ExpBuckets(1024, 4, 14))
}
