package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleOf(vs ...float64) *Sample {
	s := &Sample{}
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

func TestEmptySampleSafe(t *testing.T) {
	s := &Sample{}
	if s.Mean() != 0 || s.StdDev() != 0 || s.RelStdDev() != 0 ||
		s.CI95() != 0 || s.N() != 0 {
		t.Error("empty sample should return zeros everywhere")
	}
}

func TestMeanAndStdDev(t *testing.T) {
	s := sampleOf(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample stddev with n-1: variance = 32/7.
	want := math.Sqrt(32.0 / 7)
	if got := s.StdDev(); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if got := s.RelStdDev(); math.Abs(got-want/5) > 1e-12 {
		t.Errorf("RelStdDev = %v", got)
	}
}

func TestSingleValueSample(t *testing.T) {
	s := sampleOf(3.5)
	if s.Mean() != 3.5 || s.StdDev() != 0 || s.CI95() != 0 {
		t.Error("single-value sample stats wrong")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	small, big := &Sample{}, &Sample{}
	for i := 0; i < 4; i++ {
		small.Add(float64(i % 2))
	}
	for i := 0; i < 400; i++ {
		big.Add(float64(i % 2))
	}
	if big.CI95() >= small.CI95() {
		t.Errorf("CI95 did not shrink: %v -> %v", small.CI95(), big.CI95())
	}
}

// TestT975MatchesPublishedQuantiles checks CI95's multiplier against
// published two-sided 95% Student's t quantiles, on both sides of the
// table's end, and that it falls with df toward the normal 1.960.
func TestT975MatchesPublishedQuantiles(t *testing.T) {
	for _, tc := range []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {9, 2.262}, {29, 2.045}, {30, 2.042},
		{31, 2.040}, {40, 2.021}, {60, 2.000}, {120, 1.980},
	} {
		if got := t975(tc.df); math.Abs(got-tc.want) > 0.0005 {
			t.Errorf("t975(%d) = %.4f, want %.3f", tc.df, got, tc.want)
		}
	}
	for df := 2; df <= 1000; df++ {
		if t975(df) >= t975(df-1) {
			t.Fatalf("t975(%d) = %v is not below t975(%d) = %v", df, t975(df), df-1, t975(df-1))
		}
	}
	if got := t975(1 << 30); math.Abs(got-1.96) > 0.0005 {
		t.Errorf("t975 at large df = %v, want 1.960", got)
	}
}

// TestCI95UsesStudentsT pins the interval at the report's 10
// replications: t at 9 degrees of freedom times the standard error.
func TestCI95UsesStudentsT(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	want := 2.262157163 * s.StdDev() / math.Sqrt(10)
	if got := s.CI95(); math.Abs(got-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

func TestValuesReturnsCopy(t *testing.T) {
	s := sampleOf(1, 2, 3)
	vs := s.Values()
	vs[0] = 99
	if s.Values()[0] != 1 {
		t.Error("Values exposed internal storage")
	}
}

// Property: mean is within [min, max] and stddev is non-negative.
func TestPropertyMomentBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		s := &Sample{}
		for _, v := range raw {
			s.Add(float64(v))
		}
		lo, hi := float64(raw[0]), float64(raw[0])
		for _, v := range raw {
			lo, hi = min(lo, float64(v)), max(hi, float64(v))
		}
		m := s.Mean()
		return m >= lo-1e-9 && m <= hi+1e-9 && s.StdDev() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
