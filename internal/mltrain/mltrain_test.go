package mltrain

import (
	"math"
	"testing"

	"github.com/trioml/triogo/internal/sim"
)

func TestModelsMatchTable1(t *testing.T) {
	want := map[string]struct {
		size, batch int
	}{
		"ResNet50":    {98, 64},
		"VGG11":       {507, 128},
		"DenseNet161": {109, 64},
	}
	models := Models()
	if len(models) != 3 {
		t.Fatalf("models = %d", len(models))
	}
	for _, m := range models {
		w, ok := want[m.Name]
		if !ok {
			t.Fatalf("unexpected model %s", m.Name)
		}
		if m.SizeMB != w.size || m.BatchSize != w.batch || m.Dataset != "ImageNet" {
			t.Fatalf("%s = %+v", m.Name, m)
		}
	}
}

func TestAccuracyCurveCrossesTargetAtBaseIters(t *testing.T) {
	for _, m := range Models() {
		got := m.Accuracy(float64(m.BaseIters))
		if math.Abs(got-m.TargetAcc) > 0.01 {
			t.Errorf("%s: acc(BaseIters) = %.3f, want %v", m.Name, got, m.TargetAcc)
		}
		if m.Accuracy(0) != m.accStart {
			t.Errorf("%s: acc(0) = %v", m.Name, m.Accuracy(0))
		}
		// Monotone increasing.
		prev := -1.0
		for k := 0; k <= m.BaseIters*2; k += m.BaseIters / 10 {
			a := m.Accuracy(float64(k))
			if a < prev {
				t.Fatalf("%s: accuracy not monotone at %d", m.Name, k)
			}
			prev = a
		}
	}
}

func TestInjectorZeroProbabilityNeverDelays(t *testing.T) {
	in := NewInjector(0, 6, 100*sim.Millisecond, 1)
	for i := 0; i < 100; i++ {
		for w := 0; w < 6; w++ {
			if in.Delay(i, w) != 0 {
				t.Fatal("delay at p=0")
			}
		}
	}
}

func TestInjectorDelayBoundsAndRate(t *testing.T) {
	typ := 100 * sim.Millisecond
	in := NewInjector(0.16, 6, typ, 7)
	straggled := 0
	const iters = 5000
	for i := 0; i < iters; i++ {
		hit := false
		for w := 0; w < 6; w++ {
			d := in.Delay(i, w)
			if d != 0 && (d < typ/2 || d > 3*2*typ) {
				t.Fatalf("delay %v outside [0.5,2]x bounds (3 points)", d)
			}
			hit = hit || d != 0
		}
		if hit {
			straggled++
		}
	}
	// P(at least one of 3 points fires) = 1-(1-0.16)^3 ≈ 0.407.
	rate := float64(straggled) / iters
	if rate < 0.35 || rate < 0.0 || rate > 0.47 {
		t.Fatalf("straggle rate = %.3f, want ≈0.41", rate)
	}
}

func TestInjectorMemoized(t *testing.T) {
	in := NewInjector(0.5, 6, 100*sim.Millisecond, 7)
	a := in.Delay(3, 2)
	for i := 0; i < 10; i++ {
		if in.Delay(3, 2) != a {
			t.Fatal("draws not memoized")
		}
	}
}

// smallCfg returns a fast configuration: small model slice via high Scale.
func smallCfg(system System, p float64) ClusterConfig {
	m := Models()[0] // ResNet50
	return ClusterConfig{
		Model: m, System: system, StragglerP: p,
		Scale: 2048, // 12.5k gradients -> ~13 blocks per iteration
		Seed:  5,
	}
}

func TestIdealClusterIterationTime(t *testing.T) {
	c, err := NewCluster(smallCfg(SystemIdeal, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	avg := AvgIterTime(res, 0)
	// ResNet50: 90 ms compute + ring 2*(5/6)*98MB*8/100G ≈ 13.1 ms.
	want := 103 * sim.Millisecond
	if avg < want-2*sim.Millisecond || avg > want+2*sim.Millisecond {
		t.Fatalf("ideal iter = %v, want ≈%v", avg, want)
	}
	if AvgGradFraction(res, 0) != 1 {
		t.Fatal("ideal must aggregate full gradients")
	}
}

func TestTrioClusterNoStragglers(t *testing.T) {
	c, err := NewCluster(smallCfg(SystemTrioML, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	avg := AvgIterTime(res, 1)
	// Compute 90 ms + streaming 98 MB at 100 Gbps ≈ 7.9 ms (+ overheads).
	if avg < 95*sim.Millisecond || avg > 115*sim.Millisecond {
		t.Fatalf("trio iter = %v, want ≈98-110 ms", avg)
	}
	if f := AvgGradFraction(res, 0); f != 1 {
		t.Fatalf("full aggregation fraction = %v", f)
	}
	st := c.TrioAgg.Stats()
	if st.BlocksDegraded != 0 {
		t.Fatalf("degraded blocks without stragglers: %+v", st)
	}
	if st.BlocksCompleted == 0 {
		t.Fatal("no blocks completed")
	}
}

func TestSwitchMLClusterNoStragglers(t *testing.T) {
	c, err := NewCluster(smallCfg(SystemSwitchML, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	avg := AvgIterTime(res, 1)
	if avg < 95*sim.Millisecond || avg > 120*sim.Millisecond {
		t.Fatalf("switchml iter = %v", avg)
	}
	if c.SwitchAgg.Stats().Results == 0 {
		t.Fatal("no results")
	}
}

func TestTrioBeatsSwitchMLUnderStragglers(t *testing.T) {
	// The headline comparison: at p=16%, Trio-ML's iteration time stays
	// near Ideal while SwitchML inflates (Fig. 13's shape).
	const iters = 12
	run := func(system System, p float64) sim.Time {
		c, err := NewCluster(smallCfg(system, p))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(iters)
		if err != nil {
			t.Fatal(err)
		}
		return AvgIterTime(res, 2)
	}
	trio := run(SystemTrioML, 0.16)
	swml := run(SystemSwitchML, 0.16)
	ideal := run(SystemIdeal, 0)
	if swml <= trio {
		t.Fatalf("SwitchML (%v) should be slower than Trio-ML (%v) under stragglers", swml, trio)
	}
	speedup := float64(swml) / float64(trio)
	if speedup < 1.15 {
		t.Fatalf("speedup = %.2f, want noticeable (>1.15)", speedup)
	}
	// Trio stays within ~40% of ideal.
	if float64(trio) > 1.4*float64(ideal) {
		t.Fatalf("trio %v strayed too far from ideal %v", trio, ideal)
	}
}

func TestTrioStragglersProduceDegradedBlocks(t *testing.T) {
	c, err := NewCluster(smallCfg(SystemTrioML, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if c.TrioAgg.Stats().BlocksDegraded == 0 {
		t.Fatal("no degraded blocks despite p=0.3")
	}
	if f := AvgGradFraction(res, 0); f >= 1 || f < 0.5 {
		t.Fatalf("gradient fraction = %v, want in [0.5,1)", f)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() sim.Time {
		c, err := NewCluster(smallCfg(SystemTrioML, 0.16))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(6)
		if err != nil {
			t.Fatal(err)
		}
		return res[len(res)-1].End
	}
	if run() != run() {
		t.Fatal("same seed produced different schedules")
	}
}

func TestWorkerPacketAccounting(t *testing.T) {
	c, err := NewCluster(smallCfg(SystemTrioML, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(3); err != nil {
		t.Fatal(err)
	}
	blocks := (Models()[0].Gradients()/2048 + 1023) / 1024
	for _, w := range c.Workers() {
		if w.PacketsSent != uint64(3*blocks) {
			t.Fatalf("worker %d sent %d packets, want %d", w.ID, w.PacketsSent, 3*blocks)
		}
		if w.ResultsRecv != uint64(3*blocks) {
			t.Fatalf("worker %d received %d results, want %d", w.ID, w.ResultsRecv, 3*blocks)
		}
	}
}

func TestInjectorPatternsDiffer(t *testing.T) {
	typ := 100 * sim.Millisecond
	single := NewInjectorPattern(0.16, 6, typ, 7, SingleVictim)
	perSrv := NewInjectorPattern(0.16, 6, typ, 7, PerServerDraws)
	var nSingle, nPer int
	const iters = 2000
	for i := 0; i < iters; i++ {
		for w := 0; w < 6; w++ {
			if single.Delay(i, w) > 0 {
				nSingle++
			}
			if perSrv.Delay(i, w) > 0 {
				nPer++
			}
		}
	}
	// Single victim: ≈3p events/iter; per-server: ≈18p events/iter.
	if nPer < 4*nSingle {
		t.Fatalf("per-server events (%d) not ≫ single-victim events (%d)", nPer, nSingle)
	}
}

func TestPerServerPatternSlowsSwitchMLMore(t *testing.T) {
	run := func(pat Pattern) sim.Time {
		cfg := smallCfg(SystemSwitchML, 0.16)
		cfg.Pattern = pat
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		return AvgIterTime(res, 2)
	}
	if run(PerServerDraws) <= run(SingleVictim) {
		t.Fatal("per-server draws should inflate SwitchML at least as much")
	}
}

func TestAdvancedMitigationRemovesDeadWorkerPenalty(t *testing.T) {
	// §5 "Advanced straggler mitigation": with worker 5 permanently dead,
	// plain mitigation pays the aging timeout every iteration; the slow
	// analysis thread demotes the dead source, after which iterations
	// complete at the no-straggler pace.
	run := func(advanced uint64) []IterationResult {
		cfg := smallCfg(SystemTrioML, 0)
		cfg.DeadWorker = 5
		cfg.AdvancedMitigation = advanced
		cfg.AnalyzePeriod = 250 * sim.Millisecond
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(12)
		if err != nil {
			t.Fatal(err)
		}
		if advanced > 0 && !c.TrioAgg.Demoted(1, 5) {
			t.Fatal("dead worker not demoted")
		}
		return res
	}
	plain := run(0)
	demoting := run(20)
	// Early iterations pay the timeout either way; late ones diverge.
	lateOf := func(res []IterationResult) sim.Time {
		return (res[11].End - res[7].End) / 4
	}
	plainLate, demotedLate := lateOf(plain), lateOf(demoting)
	if demotedLate >= plainLate {
		t.Fatalf("late iterations: demoted %v not faster than plain %v", demotedLate, plainLate)
	}
	// The demoted run's late iterations shed most of the ~2x-timeout aging
	// penalty (timeout is 10 ms).
	if plainLate-demotedLate < 8*sim.Millisecond {
		t.Fatalf("penalty removed = %v, want >= 8 ms", plainLate-demotedLate)
	}
}

// BenchmarkClusterIterationTrioML is the end-to-end host cost of simulating
// one Trio-ML training iteration (ResNet50, scale 2048).
func BenchmarkClusterIterationTrioML(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(ClusterConfig{
			Model: Models()[0], System: SystemTrioML, Scale: 2048, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStatEfficiencyIsSqrtClamped(t *testing.T) {
	for _, c := range []struct{ frac, want float64 }{
		{-0.5, 0}, {0, 0}, {0.25, 0.5}, {0.81, 0.9}, {1, 1}, {1.5, 1},
	} {
		if got := StatEfficiency(c.frac); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("StatEfficiency(%v) = %v, want %v", c.frac, got, c.want)
		}
	}
}
