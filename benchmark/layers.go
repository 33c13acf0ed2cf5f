package main

import "runtime"

// layerMetric is one per-layer metric of the traced run. BENCHMARK.json
// lists the same names, units and directions (bench_test.go checks it).
type layerMetric struct{ name, unit, better string }

// Units: sim_* are simulated time and repeat exactly; ns, s and ms are host
// time; "share" is a fraction of the process's CPU time in the timed
// section; a metric a workload does not exercise reads 0 there.
var layerMetrics = []layerMetric{
	{"virt.latency_us_p50", "sim_us", "lower"},
	{"virt.latency_us_p99", "sim_us", "lower"},
	{"virt.goodput_gbps", "sim_Gbps", "higher"},

	{"packet.build_ns_per_pkt", "ns", "lower"},
	{"packet.decode_ns_per_pkt", "ns", "lower"},
	{"packet.checksum_ns_per_kb", "ns", "lower"},
	{"packet.allocs_per_pkt", "count", "lower"},
	{"packet.share", "share", "lower"},
	{"bitfield.layout_get_ns", "ns", "lower"},
	{"bitfield.handle_get_ns", "ns", "lower"},

	{"sim.events_executed", "count", "lower"},
	{"sim.events_per_pkt", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.schedule_fire_ns", "ns", "lower"},
	{"sim.peak_pending", "count", "lower"},
	{"sim.heap_insert_share", "share", "lower"},
	{"sim.share", "share", "lower"},
	{"sim.cluster.advances", "count", "lower"},
	{"sim.cluster.barrier_waits", "count", "lower"},
	{"sim.cluster.msgs", "count", "lower"},
	{"sim.cluster.lookahead_ns", "sim_ns", "higher"},
	{"sim.cluster.events_per_window", "count", "higher"},

	{"netsim.send_ns_per_frame", "ns", "lower"},
	{"netsim.frames", "count", "lower"},
	{"netsim.share", "share", "lower"},

	{"trio.pfe.inject_ns_per_pkt", "ns", "lower"},
	{"trio.pfe.dispatched", "count", "lower"},
	{"trio.pfe.instructions", "count", "lower"},
	{"trio.pfe.max_queued", "count", "lower"},
	{"trio.pfe.peak_busy_threads", "count", "lower"},
	{"trio.pfe.timer_firings", "count", "lower"},
	{"trio.smem.rmw_ops", "count", "lower"},
	{"trio.smem.backlogged", "count", "lower"},
	{"trio.smem.max_queueing_ns", "sim_ns", "lower"},
	{"trio.smem.addvec_ns_per_grad", "ns", "lower"},
	{"trio.smem.share", "share", "lower"},
	{"trio.hasheng.op_ns", "ns", "lower"},
	{"trio.hasheng.scan_ns_per_record", "ns", "lower"},
	{"trio.hasheng.share", "share", "lower"},

	{"microcode.dispatch_instr_per_s", "1/s", "higher"},
	{"microcode.instr_per_pkt", "count", "lower"},
	{"microcode.instr_per_grad", "count", "lower"},
	{"microcode.static_instrs", "count", "lower"},
	{"microcode.fused", "count", "higher"},
	{"microcode.share", "share", "lower"},

	{"trioml.grads_aggregated", "count", "lower"},
	{"trioml.blocks_completed", "count", "lower"},
	{"trioml.blocks_degraded", "count", "lower"},
	{"trioml.duplicates", "count", "lower"},
	{"trioml.timer_scan_records", "count", "lower"},
	{"trioml.instr_per_grad", "count", "lower"},

	{"tree.build_s", "s", "lower"},
	{"tree.fanin_pkts_l0", "count", "lower"},
	{"tree.fanin_pkts_upper", "count", "lower"},
	{"tree.gen_restarts", "count", "lower"},
	{"tree.rss_bytes_per_worker", "B", "lower"},

	{"hostagg.server.packets", "count", "lower"},
	{"hostagg.server.duplicates", "count", "lower"},
	{"hostagg.server.stale_drops", "count", "lower"},
	{"hostagg.server.completed", "count", "lower"},
	{"hostagg.server.degraded", "count", "lower"},
	{"hostagg.server.shed", "count", "lower"},
	{"hostagg.server.result_replays", "count", "lower"},
	{"hostagg.server.nacks_sent", "count", "lower"},
	{"hostagg.server.useful_ratio", "share", "higher"},
	{"hostagg.op_ms_p99", "ms", "lower"},
	{"hostagg.client.sendblock_ns", "ns", "lower"},
	{"hostagg.client.retransmits", "count", "lower"},
	{"hostagg.client.nacked", "count", "lower"},
	{"hostagg.client.results_dropped", "count", "lower"},
	{"hostagg.client.allocs_per_op", "count", "lower"},
	{"hostagg.client.bytes_per_op", "B", "lower"},
	{"hostagg.client.share", "share", "lower"},
	{"host.socket.udp_send_ns", "ns", "lower"},
	{"host.socket.udp_rtt_ns", "ns", "lower"},
	{"host.socket.share", "share", "lower"},

	{"host.cpu_s", "s", "lower"},
	{"host.cpu_util", "share", "higher"},
	{"host.allocs_per_pkt", "count", "lower"},
	{"host.alloc_bytes_per_pkt", "B", "lower"},
	{"host.gc_cycles", "count", "lower"},
	{"host.gc_pause_ms", "ms", "lower"},
	{"host.rss_mb", "MB", "lower"},
	{"host.unattributed_share", "share", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

var layerUnits = func() map[string]string {
	m := make(map[string]string, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = lm.unit
	}
	return m
}()

// perLayer assembles the traced run's per-layer metrics from its three
// sources: the layers' public counters (rep.counts), the spans the benchmark
// recorded around its own calls into them (trs), and the replay step. Host
// costs are medians over the untraced repetitions, so that tracing itself
// does not colour them.
func perLayer(run runner, plain, traced []*rep, trs []*tracer) map[string]measured {
	v := map[string]float64{}
	ref := traced[0]
	for name, x := range ref.sim {
		v[name] = x
	}
	for name := range ref.counts {
		// Simulator counters are equal in every repetition; the live-wire
		// ones are not, so take the median throughout.
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.counts[name])
		}
		v[name] = median(xs)
	}

	var wall, cpu, tracedWall, allocs, bytes, gcs, pause []float64
	for _, r := range plain {
		wall = append(wall, r.host.wall.Seconds())
		cpu = append(cpu, r.host.cpu.Seconds())
		allocs = append(allocs, ratio(float64(r.host.mallocs), float64(r.pkts)))
		bytes = append(bytes, ratio(float64(r.host.allocBytes), float64(r.pkts)))
		gcs = append(gcs, float64(r.host.gcCycles))
		pause = append(pause, ms(r.host.gcPause))
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, r.host.wall.Seconds())
	}
	wallS, cpuS := median(wall), median(cpu)
	v["host.cpu_s"] = cpuS
	v["host.cpu_util"] = ratio(cpuS, wallS*float64(runtime.GOMAXPROCS(0)))
	v["host.allocs_per_pkt"] = median(allocs)
	v["host.alloc_bytes_per_pkt"] = median(bytes)
	v["host.gc_cycles"] = median(gcs)
	v["host.gc_pause_ms"] = median(pause)
	v["host.rss_mb"] = procStatusKB("VmRSS") / 1024
	v["trace.overhead_pct"] = 100 * ratio(median(tracedWall)-wallS, wallS)
	if plain[0].opLat != nil {
		v["hostagg.op_ms_p99"] = ms(nearestRank(pooledLatencies(plain), 99))
	}
	v["sim.events_per_pkt"] = ratio(v["sim.events_executed"], float64(ref.pkts))
	v["sim.events_per_s"] = ratio(v["sim.events_executed"], wallS)

	for name, x := range run.replay(ref) {
		v[name] = x
	}
	// Where the benchmark itself called the layer, the span's self time is
	// the in-place cost and replaces the replayed one.
	if tr := trs[0]; tr != nil {
		for kind, name := range map[spanKind]string{
			spBuild: "packet.build_ns_per_pkt", spDecode: "packet.decode_ns_per_pkt",
			spInject: "trio.pfe.inject_ns_per_pkt",
		} {
			if x := tr.perCall(kind); x > 0 {
				v[name] = x
			}
		}
	}

	// The replay reports each layer's estimated time in seconds under
	// "<layer>.est_s"; as a share of the CPU the repetition used, what no
	// layer claims is the unattributed rest.
	rest := 1.0
	for _, layer := range []string{"packet", "sim", "netsim", "trio.smem", "trio.hasheng", "microcode", "hostagg.client", "host.socket"} {
		share := ratio(v[layer+".est_s"], cpuS)
		delete(v, layer+".est_s")
		v[layer+".share"] = share
		rest -= share
	}
	v["host.unattributed_share"] = rest

	out := make(map[string]measured, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = measured{Value: v[lm.name], Unit: lm.unit}
	}
	return out
}
