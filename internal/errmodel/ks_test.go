package errmodel

// The one-sample Kolmogorov-Smirnov test that TestHoldingTimesAreExponentialKS
// uses to check the channel's holding times against §3.1's exponential
// distributions, and its own tests.

import (
	"errors"
	"math"
	"sort"
	"testing"

	"wtcp/internal/sim"
)

// ksStatistic computes the one-sample Kolmogorov-Smirnov statistic D_n:
// the largest deviation between the sample's empirical CDF and the given
// theoretical CDF. Used to validate that the error model's holding times
// really follow the distributions §3.1 of the paper specifies.
func ksStatistic(sample []float64, cdf func(float64) float64) (float64, error) {
	n := len(sample)
	if n == 0 {
		return 0, errors.New("ks: empty sample")
	}
	sorted := make([]float64, n)
	copy(sorted, sample)
	sort.Float64s(sorted)
	d := 0.0
	for i, x := range sorted {
		f := cdf(x)
		// Deviations just before and just after the step at x.
		lo := f - float64(i)/float64(n)
		hi := float64(i+1)/float64(n) - f
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d, nil
}

// ksCriticalValue returns the approximate critical D for the given sample
// size at significance alpha (two common levels supported): samples with
// D below this are consistent with the hypothesized distribution. Uses
// the asymptotic c(alpha)/sqrt(n) approximation, valid for n >= 35.
func ksCriticalValue(n int, alpha float64) (float64, error) {
	if n <= 0 {
		return 0, errors.New("ks: non-positive sample size")
	}
	var c float64
	switch {
	case math.Abs(alpha-0.05) < 1e-9:
		c = 1.358
	case math.Abs(alpha-0.01) < 1e-9:
		c = 1.628
	default:
		return 0, errors.New("ks: supported alpha levels are 0.05 and 0.01")
	}
	return c / math.Sqrt(float64(n)), nil
}

// exponentialCDF returns the CDF of an exponential distribution with the
// given mean, for use with ksStatistic.
func exponentialCDF(mean float64) func(float64) float64 {
	return func(x float64) float64 {
		if x <= 0 || mean <= 0 {
			return 0
		}
		return -math.Expm1(-x / mean)
	}
}

func TestKSStatisticRejectsEmpty(t *testing.T) {
	if _, err := ksStatistic(nil, exponentialCDF(1)); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestKSCriticalValue(t *testing.T) {
	v, err := ksCriticalValue(100, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.1358) > 1e-4 {
		t.Errorf("critical(100, .05) = %v", v)
	}
	if _, err := ksCriticalValue(0, 0.05); err == nil {
		t.Error("zero n accepted")
	}
	if _, err := ksCriticalValue(100, 0.2); err == nil {
		t.Error("unsupported alpha accepted")
	}
}

func TestKSAcceptsMatchingExponential(t *testing.T) {
	rng := sim.NewRNG(7)
	const n = 2000
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = rng.Exp(3.0)
	}
	d, err := ksStatistic(sample, exponentialCDF(3.0))
	if err != nil {
		t.Fatal(err)
	}
	crit, err := ksCriticalValue(n, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if d > crit {
		t.Errorf("KS rejected matching exponential: D=%v > crit=%v", d, crit)
	}
}

func TestKSRejectsWrongDistribution(t *testing.T) {
	rng := sim.NewRNG(7)
	const n = 2000
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = rng.Float64() * 6 // uniform(0,6), mean 3
	}
	d, err := ksStatistic(sample, exponentialCDF(3.0))
	if err != nil {
		t.Fatal(err)
	}
	crit, err := ksCriticalValue(n, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if d <= crit {
		t.Errorf("KS failed to reject uniform-vs-exponential: D=%v <= crit=%v", d, crit)
	}
}

func TestExponentialCDFShape(t *testing.T) {
	cdf := exponentialCDF(2)
	if cdf(-1) != 0 || cdf(0) != 0 {
		t.Error("CDF not zero at origin")
	}
	if got := cdf(2); math.Abs(got-(1-math.Exp(-1))) > 1e-12 {
		t.Errorf("cdf(mean) = %v", got)
	}
	if cdf(1e9) < 0.999999 {
		t.Error("CDF does not approach 1")
	}
}
