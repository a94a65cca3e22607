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
	c  *Config // Granularity, InitialRTO and MaxRTO are read
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

// Defaults matching the paper's setup and common BSD values.
const (
	DefaultGranularity = 100 * time.Millisecond
	DefaultInitialRTO  = 3 * time.Second
	DefaultMaxRTO      = 64 * time.Second
)

// NewRTOEstimator returns a free-standing estimator with the given clock
// granularity. Non-positive arguments fall back to the defaults above.
func NewRTOEstimator(granularity, initialRTO, maxRTO time.Duration) *RTOEstimator {
	c := Config{Granularity: granularity, InitialRTO: initialRTO, MaxRTO: maxRTO}.WithDefaults()
	return &RTOEstimator{c: &c, st: new(rtt)}
}

// Granularity reports the TCP clock tick length.
func (e RTOEstimator) Granularity() time.Duration { return e.c.Granularity }

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
		return e.c.InitialRTO
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
	if rto > e.c.MaxRTO {
		rto = e.c.MaxRTO
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
