package tcp

import "time"

// RTOEstimator implements the BSD/Jacobson-Karels retransmission-timeout
// machinery on a coarse-grained TCP clock. Round-trip times are measured
// in clock ticks (the paper uses a 100 ms granularity, so RTTs are "known
// to the nearest 100 msec"), smoothed with the SIGCOMM'88 estimator, and
// backed off exponentially on consecutive losses per Karn's algorithm.
//
// It is a view: the clock parameters are a connection's Config and the
// estimate lives in the connection's State, so the value itself is two
// pointers and is made wherever the estimator is needed.
type RTOEstimator struct {
	c  *Config // Granularity is read
	st *rtt
}

// rtt is the estimator's per-connection state.
type rtt struct {
	srtt   float64 // smoothed RTT, in ticks
	rttvar float64 // mean deviation, in ticks

	samples   uint32
	hasSample bool
	// shift is the Karn backoff exponent: the effective RTO is the base
	// value times 2^shift, capped at maxBackoffShift.
	shift int8
}

const (
	// maxBackoffShift caps the exponential backoff at 2^6 = 64x, the BSD
	// TCP_MAXRXTSHIFT-era bound.
	maxBackoffShift = 6
	// minRTOTicks is the BSD floor of two clock ticks.
	minRTOTicks = 2
)

// The paper's 100 ms clock (the default of Config.Granularity) and the
// BSD timeout bounds: InitialRTO is the timeout before any RTT sample
// exists, MaxRTO caps the backed-off timeout.
const (
	DefaultGranularity = 100 * time.Millisecond
	InitialRTO         = 3 * time.Second
	MaxRTO             = 64 * time.Second
)

// Ticks converts a duration to whole clock ticks (truncating), which is
// how a coarse-clock TCP perceives elapsed time.
func (e RTOEstimator) Ticks(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int(d / e.c.Granularity)
}

// Sample feeds one round-trip measurement, in ticks, into the smoothed
// estimator (Jacobson/Karels: gain 1/8 on srtt, 1/4 on rttvar). Sampling
// also resets the Karn backoff: the measurement proves a fresh,
// non-retransmitted segment was acknowledged.
func (e RTOEstimator) Sample(ticks int) {
	r := e.st
	m := float64(ticks)
	if !r.hasSample {
		r.srtt = m
		r.rttvar = m / 2
		r.hasSample = true
	} else {
		err := m - r.srtt
		r.srtt += err / 8
		if err < 0 {
			err = -err
		}
		r.rttvar += (err - r.rttvar) / 4
	}
	r.samples++
	r.shift = 0
}

// base returns the un-backed-off timeout.
func (e RTOEstimator) base() time.Duration {
	if !e.st.hasSample {
		return InitialRTO
	}
	ticks := e.st.srtt + 4*e.st.rttvar
	if ticks < minRTOTicks {
		ticks = minRTOTicks
	}
	return time.Duration(ticks * float64(e.c.Granularity))
}

// RTO reports the current retransmission timeout: the smoothed base value
// times the Karn backoff, clamped to the ceiling.
func (e RTOEstimator) RTO() time.Duration {
	rto := e.base() << uint(e.st.shift)
	if rto > MaxRTO {
		rto = MaxRTO
	}
	return rto
}

// Backoff doubles the timeout for the next retransmission (up to the 64x
// cap), as TCP does on each consecutive loss of the same segment.
func (e RTOEstimator) Backoff() {
	if e.st.shift < maxBackoffShift {
		e.st.shift++
	}
}
