package harness

import (
	"fmt"

	"github.com/trioml/triogo/internal/dse"
	"github.com/trioml/triogo/internal/obs"
)

// workers resolves the worker-pool width for an experiment sweep:
// Params.Parallel, clamped to 1 whenever a shared trace or metrics registry
// is attached — rigs rebind func-backed series and append trace spans as
// they build and run, so concurrent rigs would interleave into the shared
// instruments. The clamp is announced (stderr line + triogo_dse_workers_clamped
// gauge) so `-parallel 8 -metrics out.prom` doesn't silently run serially.
func (p Params) workers() int {
	if p.Trace != nil || p.Obs != nil {
		if p.Parallel > 1 {
			p.logf("warning: -parallel %d clamped to 1: -trace/-metrics attach shared instruments that concurrent rigs would corrupt", p.Parallel)
			if p.Obs != nil {
				p.Obs.Gauge(obs.Desc{
					Name: "triogo_dse_workers_clamped", Unit: "workers",
					Help: "Requested sweep workers discarded by the -trace/-metrics serialization clamp.",
				}).Set(float64(p.Parallel - 1))
			}
		}
		return 1
	}
	if p.Parallel < 1 {
		return 1
	}
	return p.Parallel
}

// sweep runs runner over points on a dse.Executor with p.workers() workers
// and returns the per-point results in point order. Trial seeds are a pure
// function of (p.seed(), index), so the results are identical at every
// -parallel level; only the interleaving of progress log lines changes. The
// first trial error (lowest index) aborts the experiment.
func sweep(p Params, points []dse.Point, runner dse.Runner) ([]dse.Result, error) {
	ex := &dse.Executor{Workers: p.workers()}
	ex.RegisterObs(p.Obs)
	results, err := ex.Run(points, p.seed(), runner)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != "" {
			return nil, fmt.Errorf("trial %d: %s", r.Trial, r.Err)
		}
	}
	return results, nil
}

// sweepAxis sweeps fn over one axis's values. fn receives its point index,
// so callers fill row slots by index and the rendered tables are identical
// at every -parallel level.
func sweepAxis(p Params, axis string, values []float64, fn func(i int, v float64) (map[string]float64, error)) error {
	points := dse.NewSpace(dse.Axis{Name: axis, Values: values}).Grid()
	_, err := sweep(p, points, func(t dse.Trial) (map[string]float64, error) {
		return fn(t.Index, t.Params[axis])
	})
	return err
}
