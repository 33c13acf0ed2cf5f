package sim

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates scalar observations and reports summary statistics.
// It keeps every observation so percentiles are exact; experiment sample
// counts in this repository are small enough (≤ a few hundred thousand)
// that this is the simplest correct choice.
type Sample struct {
	xs     []float64
	sum    float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sum += x
	s.sorted = false
}

// Merge records every observation of other into s.
func (s *Sample) Merge(other *Sample) {
	for _, x := range other.xs {
		s.Add(x)
	}
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Sum reports the running total.
func (s *Sample) Sum() float64 { return s.sum }

// Mean reports the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Min reports the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[0]
}

// Max reports the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Percentile reports the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// String summarizes the sample for logs and experiment output.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p99=%.3f min=%.3f max=%.3f",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(99), s.Min(), s.Max())
}
