package tcp

import (
	"testing"
	"time"
)

// The estimator's read accessors: only tests look inside it.

// Granularity reports the TCP clock tick length.
func (e RTOEstimator) Granularity() time.Duration { return e.c.Granularity }

// BackoffShift reports the current backoff exponent (0 = no backoff).
func (e RTOEstimator) BackoffShift() int { return int(e.st.shift) }

// SRTT reports the smoothed round-trip time (zero before any sample).
func (e RTOEstimator) SRTT() time.Duration {
	return time.Duration(e.st.srtt * float64(e.c.Granularity))
}

// RTTVar reports the smoothed mean deviation.
func (e RTOEstimator) RTTVar() time.Duration {
	return time.Duration(e.st.rttvar * float64(e.c.Granularity))
}

// Samples reports how many RTT measurements have been taken.
func (e RTOEstimator) Samples() uint64 { return uint64(e.st.samples) }

// newRTOEstimator returns a free-standing estimator with the given clock
// granularity. A non-positive one falls back to the default (rto.go).
func newRTOEstimator(granularity time.Duration) *RTOEstimator {
	c := Config{Granularity: granularity}.WithDefaults()
	return &RTOEstimator{c: &c, st: new(rtt)}
}

func TestRTOBeforeAnySample(t *testing.T) {
	e := newRTOEstimator(100 * time.Millisecond)
	if got := e.RTO(); got != 3*time.Second {
		t.Errorf("initial RTO = %v, want 3s", got)
	}
	if e.SRTT() != 0 {
		t.Errorf("SRTT before samples = %v", e.SRTT())
	}
}

func TestFirstSampleInitializesEstimators(t *testing.T) {
	e := newRTOEstimator(100 * time.Millisecond)
	e.Sample(10) // 1s RTT
	if got := e.SRTT(); got != time.Second {
		t.Errorf("SRTT = %v, want 1s", got)
	}
	if got := e.RTTVar(); got != 500*time.Millisecond {
		t.Errorf("RTTVar = %v, want 500ms", got)
	}
	// RTO = srtt + 4*rttvar = 10 + 20 = 30 ticks = 3s.
	if got := e.RTO(); got != 3*time.Second {
		t.Errorf("RTO = %v, want 3s", got)
	}
	if e.Samples() != 1 {
		t.Errorf("Samples = %d", e.Samples())
	}
}

func TestEstimatorConvergesOnSteadyRTT(t *testing.T) {
	e := newRTOEstimator(100 * time.Millisecond)
	for i := 0; i < 100; i++ {
		e.Sample(8)
	}
	if got := e.SRTT(); got < 790*time.Millisecond || got > 810*time.Millisecond {
		t.Errorf("SRTT = %v, want ~800ms", got)
	}
	// Variance decays toward zero; RTO approaches srtt but stays above
	// the 2-tick floor.
	if got := e.RTO(); got < 200*time.Millisecond || got > 1200*time.Millisecond {
		t.Errorf("converged RTO = %v", got)
	}
}

func TestRTOFloorTwoTicks(t *testing.T) {
	e := newRTOEstimator(100 * time.Millisecond)
	for i := 0; i < 50; i++ {
		e.Sample(0) // sub-tick RTTs measure as zero on a coarse clock
	}
	if got := e.RTO(); got != 200*time.Millisecond {
		t.Errorf("RTO = %v, want 200ms floor", got)
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	e := newRTOEstimator(100 * time.Millisecond)
	e.Sample(10) // base RTO = 3s
	base := e.RTO()
	e.Backoff()
	if got := e.RTO(); got != 2*base {
		t.Errorf("after one backoff RTO = %v, want %v", got, 2*base)
	}
	for i := 0; i < 20; i++ {
		e.Backoff()
	}
	if e.BackoffShift() != 6 {
		t.Errorf("shift = %d, want cap 6", e.BackoffShift())
	}
	// 3s << 6 = 192s clamps to 64s.
	if got := e.RTO(); got != 64*time.Second {
		t.Errorf("capped RTO = %v, want 64s", got)
	}
}

func TestSampleResetsBackoff(t *testing.T) {
	e := newRTOEstimator(100 * time.Millisecond)
	e.Sample(10)
	e.Backoff()
	e.Backoff()
	if e.BackoffShift() != 2 {
		t.Fatalf("shift = %d", e.BackoffShift())
	}
	e.Sample(10)
	if e.BackoffShift() != 0 {
		t.Errorf("shift after sample = %d, want 0 (Karn reset)", e.BackoffShift())
	}
}

func TestVarianceTracksJitter(t *testing.T) {
	steady := newRTOEstimator(100 * time.Millisecond)
	jittery := newRTOEstimator(100 * time.Millisecond)
	for i := 0; i < 200; i++ {
		steady.Sample(10)
		if i%2 == 0 {
			jittery.Sample(5)
		} else {
			jittery.Sample(15)
		}
	}
	if jittery.RTTVar() <= steady.RTTVar() {
		t.Errorf("jittery var %v not above steady var %v", jittery.RTTVar(), steady.RTTVar())
	}
	if jittery.RTO() <= steady.RTO() {
		t.Errorf("jittery RTO %v not above steady RTO %v", jittery.RTO(), steady.RTO())
	}
}

func TestTicksTruncate(t *testing.T) {
	e := newRTOEstimator(100 * time.Millisecond)
	tests := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0},
		{99 * time.Millisecond, 0},
		{100 * time.Millisecond, 1},
		{199 * time.Millisecond, 1},
		{1 * time.Second, 10},
		{1050 * time.Millisecond, 10},
	}
	for _, tt := range tests {
		if got := e.Ticks(tt.d); got != tt.want {
			t.Errorf("Ticks(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	e := newRTOEstimator(0)
	if e.Granularity() != DefaultGranularity {
		t.Errorf("granularity = %v", e.Granularity())
	}
	if e.RTO() != InitialRTO {
		t.Errorf("initial RTO = %v", e.RTO())
	}
}

func TestCoarseClockQuantization(t *testing.T) {
	// A 100ms-clock TCP measures a 340ms RTT as either 3 ticks: the
	// estimator must work on ticks, not raw durations.
	e := newRTOEstimator(100 * time.Millisecond)
	e.Sample(e.Ticks(340 * time.Millisecond))
	if got := e.SRTT(); got != 300*time.Millisecond {
		t.Errorf("SRTT = %v, want 300ms (3 ticks)", got)
	}
}
