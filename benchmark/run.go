package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"
)

// measured is one reported number.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations stand behind Value; Spread is the
	// interquartile range of the per-repetition values as a share of their
	// median. Both are 0 for counters and simulated figures, which repeat
	// exactly.
	Samples int     `json:"samples,omitempty"`
	Spread  float64 `json:"spread,omitempty"`
}

// result is everything one workload run reports; -out writes it as JSON and
// -compare reads two of them per workload.
type result struct {
	Workload  string  `json:"workload"`
	Shape     string  `json:"shape"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Reps      int     `json:"reps"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// VirtDigest hashes the simulated statistics; it is equal across
	// repetitions (or the run fails) and across commits that only touch
	// host speed. Empty where nothing is simulated.
	VirtDigest string              `json:"virt_digest,omitempty"`
	EndToEnd   map[string]measured `json:"end_to_end"`
	Simulated  map[string]measured `json:"simulated,omitempty"`
	PerLayer   map[string]measured `json:"per_layer,omitempty"`
	Notes      []string            `json:"notes,omitempty"`
}

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	scale   int
	outDir  string // where the trace file goes when tracing
}

// minReps is the fewest timed repetitions (per tracing state) a run reports
// medians over, however short -seconds is.
const minReps = 3

// runWorkload builds the workload's rig once to warm the process up, then
// repeats it for opt.seconds. With tracing on, repetitions alternate between
// traced and untraced so that the same run yields the tracing overhead; the
// end-to-end numbers come from the untraced ones only.
func runWorkload(w *workload, opt options) (*result, error) {
	res := &result{Workload: w.name, Shape: w.shape, Seed: opt.seed, Seconds: opt.seconds, Correct: true}
	run, err := w.new(opt.scale, opt.seed)
	if err != nil {
		return nil, err
	}
	var trs []*tracer
	if opt.trace {
		t0 := time.Now()
		for _, name := range run.tracks() {
			trs = append(trs, newTracer(name, t0))
		}
	}

	warm, err := run.rep(nil)
	if err != nil {
		return nil, err
	}
	plain, traced := []*rep{}, []*rep{}
	all := []*rep{warm}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		tracing := opt.trace && i%2 == 1
		enough := len(plain) >= minReps && (!opt.trace || len(traced) >= minReps)
		if enough && !time.Now().Before(deadline) {
			break
		}
		var r *rep
		if tracing {
			r, err = run.rep(trs)
			traced = append(traced, r)
		} else {
			r, err = run.rep(nil)
			plain = append(plain, r)
		}
		if err != nil {
			return nil, err
		}
		all = append(all, r)
	}

	// Correctness: every repetition, the warm-up included, must be free of
	// failed operations and reproduce the same simulated statistics.
	for i, r := range all {
		if r.failed > 0 || r.digest != warm.digest {
			res.Correct = false
		}
		if r.digest != warm.digest {
			res.Notes = append(res.Notes, fmt.Sprintf("repetition %d: simulated statistics differ from the warm-up's (digest %016x vs %016x)", i, r.digest, warm.digest))
		}
		res.Notes = append(res.Notes, r.notes...)
	}
	if warm.digest != 0 {
		res.VirtDigest = fmt.Sprintf("%016x", warm.digest)
	}
	for _, r := range plain {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	if !res.Correct && res.Failed == 0 {
		res.Failed = 1 // a failure outside the counted repetitions still fails the run
	}
	res.Reps = len(plain)

	res.EndToEnd = endToEnd(plain)
	res.Simulated = map[string]measured{}
	for name, v := range plain[0].sim {
		res.Simulated[name] = measured{Value: v, Unit: layerUnits[name]}
	}
	if opt.trace {
		res.PerLayer = perLayer(run, plain, traced, trs)
		if opt.outDir != "" {
			if err := writeTrace(filepath.Join(opt.outDir, w.name+".trace.json"), w.name, trs); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// endToEndNames lists the end-to-end metrics in BENCHMARK.json's order.
var endToEndNames = []string{"pkts_per_s", "goodput_mb_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb", "setup_s"}

// tailPercentile is the end-to-end tail. On the shared reference box a p99
// over ~1300 all-reduces is set by whether one 20 ms retransmit stall fell
// into the run (run-to-run spread 25-46 %); p90 has ten times the samples
// beyond it and moves with the median. p99 stays visible as the per-layer
// metric hostagg.op_ms_p99.
const tailPercentile = 90

// endToEnd turns the untraced repetitions into the end-to-end metrics. Rates
// and set-up time are medians over repetitions. The latency percentiles pool
// every operation of every repetition. Where the repetition itself is the
// operation (the simulator workloads: one complete simulated all-reduce run)
// there are a handful to a few hundred samples, no tail the host's own noise
// does not swamp, and both names report the median repetition.
func endToEnd(reps []*rep) map[string]measured {
	var setup, pps, mbps, p50s, tails []float64
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		pps = append(pps, float64(r.pkts)/r.host.wall.Seconds())
		mbps = append(mbps, float64(r.payload)/1e6/r.host.wall.Seconds())
		if r.opLat == nil {
			p50s = append(p50s, ms(r.host.wall))
		} else if len(r.opLat) > 0 {
			lat := slices.Sorted(slices.Values(r.opLat))
			p50s = append(p50s, ms(nearestRank(lat, 50)))
			tails = append(tails, ms(nearestRank(lat, tailPercentile)))
		}
	}
	pooled, tail := pooledLatencies(reps), float64(tailPercentile)
	if tails == nil {
		tail, tails = 50, p50s
	}
	n := len(reps)
	out := map[string]measured{
		"setup_s":          {median(setup), "s", n, spread(setup)},
		"pkts_per_s":       {median(pps), "1/s", n, spread(pps)},
		"goodput_mb_per_s": {median(mbps), "MB/s", n, spread(mbps)},
		"peak_rss_mb":      {procStatusKB("VmHWM") / 1024, "MB", 1, 0},
	}
	if len(pooled) > 0 {
		out["op_ms_p50"] = measured{ms(nearestRank(pooled, 50)), "ms", len(pooled), spread(p50s)}
		out["op_ms_p90"] = measured{ms(nearestRank(pooled, tail)), "ms", len(pooled), spread(tails)}
	}
	return out
}

// pooledLatencies gathers, ascending, the wall time of every operation of
// the repetitions: the all-reduces of a hostagg repetition, or the
// repetition itself on the simulator workloads.
func pooledLatencies(reps []*rep) []time.Duration {
	var pooled []time.Duration
	for _, r := range reps {
		if r.opLat == nil {
			pooled = append(pooled, r.host.wall)
		}
		pooled = append(pooled, r.opLat...)
	}
	slices.Sort(pooled)
	return pooled
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
