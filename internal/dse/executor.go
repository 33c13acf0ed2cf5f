package dse

import (
	"fmt"
	"sync"
	"time"
)

// Trial is the unit of work a Runner receives: one point's parameters plus
// the deterministic seed derived from (sweep seed, trial index).
type Trial struct {
	Index  int
	Seed   uint64
	Params map[string]float64
}

// Runner executes one trial and reports its scalar metrics. A Runner must
// build all mutable state (simulator rigs, RNG streams) inside the call and
// derive randomness only from t.Seed, so that concurrent trials are fully
// isolated and a trial's outcome is a pure function of (Params, Seed).
type Runner func(t Trial) (map[string]float64, error)

// Result is the outcome of one trial: its index, seed and parameters, and
// either the runner's metrics or its error text.
type Result struct {
	Trial   int
	Seed    uint64
	Params  map[string]float64
	Metrics map[string]float64
	Err     string
}

// Executor runs a sweep's trials on a bounded worker pool.
type Executor struct {
	Workers int // pool size; values below 1 mean 1 (Run starts at most one per point)

	insts obsInsts
}

// poolSize is the number of workers Run starts for a sweep of the given
// number of trials: Workers, at least 1, and never more than trials.
func (e *Executor) poolSize(trials int) int {
	return min(max(e.Workers, 1), trials)
}

// Run executes runner over points and returns one Result per point, indexed
// by trial. points must be a complete enumeration (points[i].Index == i),
// as produced by Space.Grid.
//
// Each worker writes only its own trials' slots, so the returned slice is the
// same at any pool size. Trial failures do not stop the sweep: they are
// recorded in Result.Err (and the failed-trials counter) and the caller
// decides whether they are fatal.
func (e *Executor) Run(points []Point, sweepSeed uint64, runner Runner) ([]Result, error) {
	for i, pt := range points {
		if pt.Index != i {
			return nil, fmt.Errorf("dse: points[%d].Index = %d; Run needs a complete enumeration", i, pt.Index)
		}
	}

	results := make([]Result, len(points))
	var wg sync.WaitGroup
	work := make(chan Point)
	workers := e.poolSize(len(points))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for pt := range work {
				e.insts.started.Inc()
				e.insts.busy.Add(1)
				start := time.Now()
				r := Result{Trial: pt.Index, Seed: TrialSeed(sweepSeed, pt.Index), Params: pt.Params}
				metrics, err := runner(Trial{Index: pt.Index, Seed: r.Seed, Params: pt.Params})
				e.insts.busy.Add(-1)
				e.insts.wall.Observe(time.Since(start).Seconds())
				if err != nil {
					r.Err = err.Error()
					e.insts.failed.Inc()
				} else {
					r.Metrics = metrics
					e.insts.completed.Inc()
				}
				results[pt.Index] = r
			}
		}()
	}
	for _, pt := range points {
		work <- pt
	}
	close(work)
	wg.Wait()
	return results, nil
}
