package dse

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/trioml/triogo/internal/obs"
	"github.com/trioml/triogo/internal/sim"
)

// synthRunner is a deterministic stand-in for a simulator rig: its metrics
// are pure functions of (Params, Seed), like a real isolated trial's.
func synthRunner(t Trial) (map[string]float64, error) {
	rng := sim.NewRNG(t.Seed, 0)
	return map[string]float64{
		"score": t.Params["a"]*100 + t.Params["b"] + float64(rng.IntN(1000))/1e6,
		"cost":  t.Params["b"] * 2,
	}, nil
}

// TestParallelResultsBitIdentical is the executor's determinism contract:
// the returned results are the same at every pool size.
func TestParallelResultsBitIdentical(t *testing.T) {
	s := testSpace()
	var serial []Result
	for _, workers := range []int{1, 4, 16} {
		results, err := (&Executor{Workers: workers}).Run(s.Grid(), 7, synthRunner)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != s.Size() {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), s.Size())
		}
		if serial == nil {
			serial = results
			continue
		}
		if !reflect.DeepEqual(serial, results) {
			t.Fatalf("results diverge across parallelism:\n--- workers=1 ---\n%+v\n--- workers=%d ---\n%+v", serial, workers, results)
		}
	}
}

func TestRunResultsInTrialOrder(t *testing.T) {
	s := testSpace()
	ex := &Executor{Workers: 4}
	results, err := ex.Run(s.Grid(), 7, synthRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != s.Size() {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Trial != i {
			t.Fatalf("result %d has trial %d", i, r.Trial)
		}
		if r.Seed != TrialSeed(7, i) {
			t.Fatalf("trial %d seed %#x, want %#x", i, r.Seed, TrialSeed(7, i))
		}
		if r.Err != "" || r.Metrics["score"] == 0 {
			t.Fatalf("trial %d: %+v", i, r)
		}
	}
}

func TestFailedTrialsRecordedNotFatal(t *testing.T) {
	s := testSpace()
	reg := obs.NewRegistry()
	ex := &Executor{Workers: 2}
	ex.RegisterObs(reg)
	results, err := ex.Run(s.Grid(), 7, func(t Trial) (map[string]float64, error) {
		if t.Index == 3 {
			return nil, fmt.Errorf("boom %d", t.Index)
		}
		return synthRunner(t)
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[3].Err != "boom 3" || results[3].Metrics != nil {
		t.Fatalf("trial 3 = %+v", results[3])
	}
	if results[2].Err != "" {
		t.Fatalf("trial 2 = %+v", results[2])
	}
	if got := ex.insts.failed.Value(); got != 1 {
		t.Fatalf("failed counter = %d", got)
	}
	if got := ex.insts.completed.Value(); got != uint64(s.Size()-1) {
		t.Fatalf("completed counter = %d", got)
	}
	if got := ex.insts.started.Value(); got != uint64(s.Size()) {
		t.Fatalf("started counter = %d", got)
	}
	if busy := ex.insts.busy.Value(); busy != 0 {
		t.Fatalf("busy gauge = %v after Run", busy)
	}
	if got := ex.insts.wall.Count(); got != uint64(s.Size()) {
		t.Fatalf("wall histogram count = %d", got)
	}
}

func TestRunRejectsSparseEnumeration(t *testing.T) {
	s := testSpace()
	pts := s.Grid()[2:4]
	ex := &Executor{}
	if _, err := ex.Run(pts, 7, synthRunner); err == nil {
		t.Fatal("sparse enumeration accepted")
	}
}

func TestRunEmptyPoints(t *testing.T) {
	results, err := (&Executor{Workers: 4}).Run(nil, 7, func(Trial) (map[string]float64, error) {
		t.Error("runner called with no points")
		return nil, nil
	})
	if err != nil || len(results) != 0 {
		t.Fatalf("Run(nil) = %d results, %v", len(results), err)
	}
}

func TestRunnerSeesTrialSeedAndParams(t *testing.T) {
	s := testSpace()
	pts := s.Grid()
	seen := make([]Trial, len(pts))
	_, err := (&Executor{Workers: 3}).Run(pts, 11, func(tr Trial) (map[string]float64, error) {
		seen[tr.Index] = tr
		return map[string]float64{"x": 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range seen {
		if tr.Index != i || tr.Seed != TrialSeed(11, i) || !reflect.DeepEqual(tr.Params, pts[i].Params) {
			t.Fatalf("trial %d saw %+v, want seed %#x and params %v", i, tr, TrialSeed(11, i), pts[i].Params)
		}
	}
}

// maxInFlight runs a 12-point sweep at the given pool size and reports the
// most trials that ever ran at once. The first min(workers, 12) trials wait
// for each other, so a pool of n reaches exactly n.
func maxInFlight(t *testing.T, workers int) int {
	t.Helper()
	s := NewSpace(Axis{Name: "a", Values: make([]float64, 12)})
	reach := max(workers, 1)
	var (
		mu             sync.Mutex
		inFlight, peak int
		once           sync.Once
	)
	gate := make(chan struct{})
	_, err := (&Executor{Workers: workers}).Run(s.Grid(), 1, func(Trial) (map[string]float64, error) {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		n := inFlight
		mu.Unlock()
		if n >= reach {
			once.Do(func() { close(gate) })
		}
		<-gate
		mu.Lock()
		inFlight--
		mu.Unlock()
		return map[string]float64{"x": 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return peak
}

func TestWorkersBoundConcurrency(t *testing.T) {
	if got := maxInFlight(t, 3); got != 3 {
		t.Fatalf("peak trials in flight = %d with 3 workers", got)
	}
}

func TestWorkersBelowOneRunSerially(t *testing.T) {
	for _, workers := range []int{0, -3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			if got := maxInFlight(t, workers); got != 1 {
				t.Fatalf("peak trials in flight = %d", got)
			}
		})
	}
}

// TestPoolSizeCappedAtTrials pins the pool Run starts: Workers clamped to at
// least 1 and to at most one worker per trial, so a wide -parallel on a
// short sweep starts no idle goroutines.
func TestPoolSizeCappedAtTrials(t *testing.T) {
	for _, c := range []struct{ workers, trials, want int }{
		{64, 2, 2},
		{3, 12, 3},
		{12, 12, 12},
		{0, 5, 1},
		{-3, 5, 1},
		{8, 0, 0},
	} {
		if got := (&Executor{Workers: c.workers}).poolSize(c.trials); got != c.want {
			t.Errorf("Workers %d, %d trials: pool = %d, want %d", c.workers, c.trials, got, c.want)
		}
	}
}

// TestParallelHammer drives many concurrent trials through shared obs
// instruments and the shared result slice under -race.
func TestParallelHammer(t *testing.T) {
	s := NewSpace(
		Axis{Name: "a", Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		Axis{Name: "b", Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
	)
	reg := obs.NewRegistry()
	ex := &Executor{Workers: 16}
	ex.RegisterObs(reg)
	results, err := ex.Run(s.Grid(), 3, synthRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != s.Size() {
		t.Fatalf("%d results for %d points", len(results), s.Size())
	}
	for i, r := range results {
		if r.Err != "" || r.Trial != i || r.Seed != TrialSeed(3, i) || r.Metrics == nil {
			t.Fatalf("trial %d: %+v", i, r)
		}
	}
	if got := ex.insts.completed.Value(); got != uint64(s.Size()) {
		t.Fatalf("completed counter = %d", got)
	}
}
