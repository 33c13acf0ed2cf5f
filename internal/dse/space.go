package dse

import "fmt"

// Axis is one swept knob: a name and its candidate settings, in sweep order.
// Values are float64 so a single Point type covers integer knobs (PPE
// counts, gradients per packet), durations (latencies in nanoseconds), and
// rates (loss probabilities); runners convert back at the trial boundary.
type Axis struct {
	Name   string
	Values []float64
}

// Space is a declarative design space: the cross product of its axes.
type Space struct {
	Axes []Axis
}

// NewSpace builds a space, panicking on an empty or duplicate axis — spaces
// are static experiment descriptions, so a bad one is a programming error.
func NewSpace(axes ...Axis) *Space {
	seen := make(map[string]bool, len(axes))
	for _, a := range axes {
		if a.Name == "" || len(a.Values) == 0 {
			panic(fmt.Sprintf("dse: axis %q needs a name and at least one value", a.Name))
		}
		if seen[a.Name] {
			panic(fmt.Sprintf("dse: duplicate axis %q", a.Name))
		}
		seen[a.Name] = true
	}
	return &Space{Axes: axes}
}

// Size reports the number of points in the full grid.
func (s *Space) Size() int {
	n := 1
	for _, a := range s.Axes {
		n *= len(a.Values)
	}
	return n
}

// Point is one candidate configuration: its index in the enumeration order
// plus the value chosen on each axis.
type Point struct {
	Index  int
	Params map[string]float64
}

// Grid enumerates the full cross product in row-major order: the last axis
// varies fastest, matching nested for-loops over Axes in declaration order.
func (s *Space) Grid() []Point {
	out := make([]Point, s.Size())
	idx := make([]int, len(s.Axes))
	for i := range out {
		params := make(map[string]float64, len(s.Axes))
		for a, ax := range s.Axes {
			params[ax.Name] = ax.Values[idx[a]]
		}
		out[i] = Point{Index: i, Params: params}
		for a := len(s.Axes) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(s.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
	}
	return out
}

// TrialSeed derives the deterministic per-trial seed from the sweep seed and
// the trial index. It is a pure function of its arguments, so a trial's
// random streams are identical however many workers run the sweep.
func TrialSeed(sweepSeed uint64, trial int) uint64 {
	// splitmix64 over the mixed pair, mirroring sim.NewRNG's stream
	// derivation so adjacent trial indices diverge fully.
	x := sweepSeed ^ (uint64(trial)+1)*0x9e3779b97f4a7c15
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
