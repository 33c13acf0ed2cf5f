package sim

import "testing"

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimestamps(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-timestamp events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("After fired at %v, want 150", fired)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling into the past")
		}
	}()
	e.At(10, func() {})
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("clock = %v, want 500", e.Now())
	}
}

func TestRunUntilDoesNotRunLaterEvents(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(1000, func() { ran++ })
	e.RunUntil(100)
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEveryFiresPeriodicallyUntilStopped(t *testing.T) {
	e := NewEngine()
	var times []Time
	stop := e.Every(5, 10, func() { times = append(times, e.Now()) })
	e.At(36, func() { stop.Stop() })
	e.RunUntil(100)
	want := []Time{5, 15, 25, 35}
	if len(times) != len(want) {
		t.Fatalf("fired %d times at %v, want %v", len(times), times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestEveryZeroPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero period")
		}
	}()
	e.Every(0, 0, func() {})
}

func TestNestedSchedulingRunsToCompletion(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(1, recurse)
		}
	}
	e.After(1, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestRNGDeterministicAcrossInstances(t *testing.T) {
	a := NewRNG(42, 7)
	b := NewRNG(42, 7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed,stream) produced different sequences")
		}
	}
}

func TestRNGStreamsDiffer(t *testing.T) {
	a := NewRNG(42, 1)
	b := NewRNG(42, 2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 1 and 2 collided %d/64 times", same)
	}
}

func TestRNGUniformTimeBounds(t *testing.T) {
	g := NewRNG(9, 3)
	for i := 0; i < 1000; i++ {
		x := g.UniformTime(100, 200)
		if x < 100 || x >= 200 {
			t.Fatalf("UniformTime out of range: %v", x)
		}
	}
	if g.UniformTime(50, 50) != 50 {
		t.Fatal("degenerate range should return lo")
	}
}

func TestSampleStatistics(t *testing.T) {
	var s Sample
	for _, x := range []float64{4, 1, 3, 2, 5} {
		s.Add(x)
	}
	if s.N() != 5 || s.Sum() != 15 || s.Mean() != 3 {
		t.Fatalf("n=%d sum=%v mean=%v", s.N(), s.Sum(), s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
}

func TestSampleEmptyIsZero(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSamplePercentileMonotonic(t *testing.T) {
	g := NewRNG(3, 3)
	var s Sample
	for i := 0; i < 500; i++ {
		s.Add(g.Float64() * 100)
	}
	prev := -1.0
	for p := 0.0; p <= 100; p += 2.5 {
		v := s.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotonic at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestTimeConversions(t *testing.T) {
	if Millisecond != 1_000_000 {
		t.Fatalf("Millisecond = %d", Millisecond)
	}
	if got := Time(1_500_000).Milliseconds(); got != 1.5 {
		t.Fatalf("Milliseconds = %v", got)
	}
	if got := Time(2500).Microseconds(); got != 2.5 {
		t.Fatalf("Microseconds = %v", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds = %v", got)
	}
}

func TestSampleMergeAddsEveryObservation(t *testing.T) {
	var a, b Sample
	for _, x := range []float64{5, 1, 3} {
		a.Add(x)
	}
	_ = a.Max() // sorts a; the merge must leave it re-sortable
	for _, x := range []float64{0, 9} {
		b.Add(x)
	}
	a.Merge(&b)
	if a.N() != 5 || a.Sum() != 18 || a.Min() != 0 || a.Max() != 9 || a.Percentile(50) != 3 {
		t.Fatalf("merged n=%d sum=%v min=%v max=%v p50=%v", a.N(), a.Sum(), a.Min(), a.Max(), a.Percentile(50))
	}
	if b.N() != 2 {
		t.Fatalf("merge changed its argument: n=%d", b.N())
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	g := NewRNG(1, 1)
	const n = 10000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; rate < 0.28 || rate > 0.32 {
		t.Fatalf("Bernoulli(0.3) rate = %.4f over %d draws", rate, n)
	}
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) || !g.Bernoulli(1) {
			t.Fatal("Bernoulli(0) fired or Bernoulli(1) did not")
		}
	}
}
