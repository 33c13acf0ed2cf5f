package mltrain

import (
	"github.com/trioml/triogo/internal/sim"
)

// Injector implements the "Slow Worker Pattern" of §6.1 (after FlexRR):
// every iteration has three possible delay points; at each point a server
// may decide to slow down with probability p, for a period drawn uniformly
// from [0.5, 2] × the model's typical iteration time.
//
// The paper's phrasing ("allowing one of the servers to decide to slow down
// at each point with a given probability p") admits two readings; both are
// implemented. The default, SingleVictim, picks one uniformly-chosen
// candidate per point — the literal reading, and the one whose measured
// Trio-ML degradation matches the paper's Fig. 13 curve almost exactly.
// PerServerDraws lets every server decide independently at each point
// (FlexRR's original pattern); it brackets the paper's SwitchML/Trio-ML
// factor from above (see EXPERIMENTS.md).
//
// Draws are memoized per (iteration, point) so that workers reaching an
// iteration at different wall-clock times observe one consistent schedule,
// and each iteration uses its own RNG stream so paired comparisons across
// systems see identical schedules.
type Injector struct {
	p           float64
	numWorkers  int
	typicalIter sim.Time
	seed        uint64
	mode        Pattern
	memo        map[int][]delay
}

// Pattern selects the Slow Worker Pattern reading.
type Pattern int

// Injection patterns.
const (
	// SingleVictim: at each delay point one uniformly-chosen server slows
	// with probability p.
	SingleVictim Pattern = iota
	// PerServerDraws: at each delay point every server independently slows
	// with probability p.
	PerServerDraws
)

// delayPoints is the number of potential delay points per iteration.
const delayPoints = 3

type delay struct {
	victim int
	dur    sim.Time
}

// NewInjector builds an injector for a cluster of numWorkers with straggling
// probability p and the given seed. Each iteration's schedule is drawn from
// its own RNG stream, so two simulations with the same seed observe the same
// schedule regardless of the order in which their workers reach iterations —
// this is what makes Trio-ML-vs-SwitchML comparisons paired.
func NewInjector(p float64, numWorkers int, typicalIter sim.Time, seed uint64) *Injector {
	return NewInjectorPattern(p, numWorkers, typicalIter, seed, SingleVictim)
}

// NewInjectorPattern builds an injector with an explicit pattern reading.
func NewInjectorPattern(p float64, numWorkers int, typicalIter sim.Time, seed uint64, mode Pattern) *Injector {
	return &Injector{p: p, numWorkers: numWorkers, typicalIter: typicalIter, seed: seed,
		mode: mode, memo: make(map[int][]delay)}
}

// draws returns the iteration's delay schedule, drawing it on first use.
func (in *Injector) draws(iter int) []delay {
	if d, ok := in.memo[iter]; ok {
		return d
	}
	rng := sim.NewRNG(in.seed, uint64(iter)+1)
	var d []delay
	for i := 0; i < delayPoints; i++ {
		switch in.mode {
		case SingleVictim:
			if in.p > 0 && rng.Bernoulli(in.p) {
				d = append(d, delay{
					victim: rng.IntN(in.numWorkers),
					dur:    rng.UniformTime(in.typicalIter/2, 2*in.typicalIter),
				})
			}
		default: // PerServerDraws
			for w := 0; w < in.numWorkers; w++ {
				if in.p > 0 && rng.Bernoulli(in.p) {
					d = append(d, delay{
						victim: w,
						dur:    rng.UniformTime(in.typicalIter/2, 2*in.typicalIter),
					})
				}
			}
		}
	}
	in.memo[iter] = d
	return d
}

// Delay reports the total slowdown worker w suffers in iteration iter.
func (in *Injector) Delay(iter, worker int) sim.Time {
	var total sim.Time
	for _, d := range in.draws(iter) {
		if d.victim == worker {
			total += d.dur
		}
	}
	return total
}
