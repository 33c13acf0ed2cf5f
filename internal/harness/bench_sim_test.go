package harness

import (
	"testing"

	"github.com/trioml/triogo/internal/sim"
)

// BenchmarkFig15SimThroughput measures end-to-end simulator throughput on the
// Fig. 15 rig at its densest operating point: 4 servers streaming
// 256-gradient blocks window-1 through one PFE while 100 staggered timer
// threads sweep the aggregation table (timeout 10 ms → 100 µs interarrival).
// The headline metric is simulated aggregation packets per wall-clock second
// — the quantity that bounds how fast every §6 experiment can run.
func BenchmarkFig15SimThroughput(b *testing.B) {
	const servers, blocks = 4, 400
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rigConfig{servers: servers, gradsPerPkt: 256, blocks: blocks, window: 1}
		rig := newTrioRig(cfg)
		rig.run()
		for i, w := range rig.servers {
			if w.ResultsRecv != blocks {
				b.Fatalf("server %d finished %d/%d", i, w.ResultsRecv, blocks)
			}
		}
		events += rig.eng.Executed()
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(b.N*servers*blocks)/secs, "simpkts/s")
		b.ReportMetric(float64(events)/secs, "events/s")
	}
}

// BenchmarkFig14TimerDensity isolates the §5 timer-thread load that dominates
// Fig. 14: a short 2 ms timeout with N=100 phase-staggered threads (20 µs
// interarrival) against 6 servers × 20 blocks. Periodic firings outnumber
// packets by orders of magnitude here, so this tracks the scheduler's
// periodic-event cost specifically.
func BenchmarkFig14TimerDensity(b *testing.B) {
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rigConfig{
			servers: 6, gradsPerPkt: 1024, blocks: 20, window: 20,
			timeout: 2 * sim.Millisecond, timerThreads: 100,
			silent: map[int]bool{5: true},
		}
		rig := newTrioRig(cfg)
		rig.run()
		events += rig.eng.Executed()
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
	}
}
