package main

import (
	"math"
	"sort"
)

// samples collects one timing (or count) per iteration and reports it
// the way every timing in this benchmark is reported: the median, the
// highest percentile that still has at least ten samples beyond it, and
// the sample count.
type samples struct {
	xs     []float64
	sorted bool
}

func (s *samples) add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

func (s *samples) n() int { return len(s.xs) }

func (s *samples) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between order statistics; 0 for an empty set.
func (s *samples) quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

func (s *samples) median() float64 { return s.quantile(0.5) }

// tailLadder lists the percentiles a tail may be reported at, in tenths
// of a percent, lowest first. The median is the floor: with fewer than
// 20 samples the tail is the median itself.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile returns the highest ladder percentile p such that at
// least ten of n samples lie beyond it (n·(1−p/100) >= 10), capped at
// limit. With too few samples for even the lowest rung it returns that
// rung: the caller prints the sample count beside it.
func tailPercentile(n int, limit float64) float64 {
	best := tailLadder[0]
	for _, pm := range tailLadder {
		if float64(pm) > limit*10 {
			break
		}
		// In integers: 1000 samples leave exactly ten beyond p99.
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 10
}

// tail returns the tail percentile chosen by tailPercentile and its
// value.
func (s *samples) tail(limit float64) (p, v float64) {
	p = tailPercentile(len(s.xs), limit)
	return p, s.quantile(p / 100)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
