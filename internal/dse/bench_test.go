package dse

import (
	"runtime"
	"testing"
)

// benchBurn is a CPU-bound stand-in for one simulator trial (~1 ms of LCG
// mixing), deterministic in the trial seed like a real rig run.
func benchBurn(t Trial) (map[string]float64, error) {
	x := t.Seed
	for i := 0; i < 400_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return map[string]float64{"digest": float64(x >> 40)}, nil
}

func benchSweep(b *testing.B, workers int) {
	space := NewSpace(
		Axis{Name: "a", Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		Axis{Name: "b", Values: []float64{1, 2, 3, 4}},
	)
	points := space.Grid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := &Executor{Workers: workers}
		if _, err := ex.Run(points, 1, benchBurn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(points)*b.N)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkSweepWorkers1 and BenchmarkSweepWorkersNumCPU bracket the
// executor's parallel speedup. On a single-core host the two are expected to
// measure the same serialized work.
func BenchmarkSweepWorkers1(b *testing.B)      { benchSweep(b, 1) }
func BenchmarkSweepWorkersNumCPU(b *testing.B) { benchSweep(b, runtime.NumCPU()) }
