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

// CI95 reports the half-width of a two-sided 95% confidence interval on
// the mean: Student's t at n-1 degrees of freedom times the standard
// error. At the report's 10 replications t is 2.262, not the normal
// 1.960.
func (s *Sample) CI95() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	return t975(n-1) * s.StdDev() / math.Sqrt(float64(n))
}

// t975Table holds Student's t 0.975 quantile — the two-sided 95%
// multiplier — for 1 to 30 degrees of freedom.
var t975Table = [...]float64{
	12.706204736, 4.302652730, 3.182446305, 2.776445105, 2.570581836,
	2.446911851, 2.364624252, 2.306004135, 2.262157163, 2.228138852,
	2.200985160, 2.178812830, 2.160368656, 2.144786688, 2.131449546,
	2.119905299, 2.109815578, 2.100922040, 2.093024054, 2.085963447,
	2.079613845, 2.073873068, 2.068657610, 2.063898562, 2.059538553,
	2.055529439, 2.051830516, 2.048407142, 2.045229642, 2.042272456,
}

// t975 reports Student's t 0.975 quantile at df >= 1 degrees of freedom:
// the table up to 30, and past it the Cornish-Fisher expansion about the
// normal quantile to the 1/df^4 term, within 1e-7 of the exact value from
// df 31 on and tending to 1.960 as df grows.
func t975(df int) float64 {
	if df <= len(t975Table) {
		return t975Table[df-1]
	}
	const z = 1.959963984540054 // the normal 0.975 quantile
	z2 := z * z
	v := float64(df)
	g1 := z * (z2 + 1) / 4
	g2 := z * ((5*z2+16)*z2 + 3) / 96
	g3 := z * (((3*z2+19)*z2+17)*z2 - 15) / 384
	g4 := z * ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) / 92160
	return z + (g1+(g2+(g3+g4/v)/v)/v)/v
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
