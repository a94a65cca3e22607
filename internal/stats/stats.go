// Package stats aggregates the evaluation's replicated measurements —
// independent seeded runs — into mean, deviation, and confidence
// intervals. The paper reports that "the standard deviation for all
// results presented is less than 4%"; the experiment harnesses use these
// helpers to report the same quantity.
package stats

import (
	"math"
	"sort"
)

// Sample is a collection of replicated measurements.
type Sample struct {
	values []float64
}

// Add appends a measurement.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// N reports the number of measurements.
func (s *Sample) N() int { return len(s.values) }

// Values returns a copy of the measurements.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Mean reports the arithmetic mean (zero for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdDev reports the sample standard deviation (n-1 denominator; zero for
// fewer than two measurements).
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, v := range s.values {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// RelStdDev reports the standard deviation as a fraction of the mean (the
// paper's "< 4%" quantity). Zero when the mean is zero.
func (s *Sample) RelStdDev() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.StdDev() / math.Abs(m)
}

// CI95 reports the half-width of a 95% normal-approximation confidence
// interval on the mean.
func (s *Sample) CI95() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(n))
}

// Min reports the smallest measurement (zero for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max reports the largest measurement (zero for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Median reports the middle measurement (zero for an empty sample).
func (s *Sample) Median() float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	sorted := s.Values()
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
