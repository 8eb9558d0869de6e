package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples is a concurrency-safe list of latencies.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.xs = append(s.xs, float64(d))
	s.mu.Unlock()
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

// quantile returns the q-quantile (nearest rank) in the given unit.
func (s *samples) quantile(q float64, unit time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.xs, q) / float64(unit)
}

// quantile is the nearest-rank q-quantile of xs (0 when empty); xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}

// tailQuantile is q when at least ten samples lie beyond it; otherwise it
// falls back to the highest quantile that has ten beyond, so a short run
// never reports a tail resting on a handful of samples.
func tailQuantile(n int, q float64) float64 {
	if n <= 10 {
		return 0.5
	}
	if hi := 1 - 10/float64(n); q > hi {
		return math.Max(hi, 0.5)
	}
	return q
}
