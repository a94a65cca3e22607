package tcp

import (
	"slices"
	"testing"
	"time"

	"wtcp/internal/units"
)

// recHost is a Host that records what the transitions ask of it.
type recHost struct {
	armed    []time.Duration // SetTimer arguments, in order
	stops    int
	observed []StateKind
}

func (h *recHost) Now() time.Duration                   { return 0 }
func (h *recHost) Transmit(int64, units.ByteSize, bool) {}
func (h *recHost) SetTimer(d time.Duration)             { h.armed = append(h.armed, d) }
func (h *recHost) StopTimer()                           { h.stops++ }
func (h *recHost) TimerDeadline() time.Duration         { return -1 }
func (h *recHost) Observe(t Transition)                 { h.observed = append(h.observed, t.Kind) }

// TestEBSNArmsTimerOnlyWithDataOutstanding pins OnEBSN's guard: with
// nothing in flight there is nothing to retransmit, so an EBSN arms no
// timer (a spurious expiry would collapse the window) yet is still
// observed; with data outstanding it re-arms the timer at the current
// RTO, backoff included.
func TestEBSNArmsTimerOnlyWithDataOutstanding(t *testing.T) {
	c := wanConfig().WithDefaults()
	st := c.NewState()
	st.SndUna, st.SndNxt, st.SndMax = 2*536, 2*536, 2*536
	h := &recHost{}
	st.OnEBSN(&c, h)
	if len(h.armed) != 0 || h.stops != 0 {
		t.Errorf("idle connection: EBSN armed %v, stopped %d times; want the timer untouched", h.armed, h.stops)
	}
	if !slices.Equal(h.observed, []StateKind{StateEBSN}) {
		t.Errorf("idle connection: observed %v, want one StateEBSN", h.observed)
	}

	st.SndNxt, st.SndMax = 4*536, 4*536
	rto := st.rto(&c)
	rto.Sample(4)
	rto.Backoff()
	want := rto.RTO()
	if want == InitialRTO {
		t.Fatalf("current RTO %v equals the initial one; the test cannot tell them apart", want)
	}
	h = &recHost{}
	st.OnEBSN(&c, h)
	if !slices.Equal(h.armed, []time.Duration{want}) {
		t.Errorf("data outstanding: EBSN armed %v, want [%v]", h.armed, want)
	}
	if !slices.Equal(h.observed, []StateKind{StateEBSN}) {
		t.Errorf("data outstanding: observed %v, want one StateEBSN", h.observed)
	}
}

// TestSlowStartStopsAtSsthresh pins the slow-start boundary of ns's
// opencwnd: a new ACK grows cwnd by MSS only while cwnd < ssthresh; at
// cwnd == ssthresh it is congestion avoidance, MSS²/cwnd.
func TestSlowStartStopsAtSsthresh(t *testing.T) {
	const mss = 536
	for _, tc := range []struct {
		name           string
		cwnd, ssthresh float64
		want           float64
	}{
		{"below", 4*mss - 1, 4 * mss, 5*mss - 1},
		{"at", 4 * mss, 4 * mss, 4*mss + mss/4},
		{"above", 4 * mss, 2 * mss, 4*mss + mss/4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := wanConfig().WithDefaults()
			st := c.NewState()
			st.SndNxt, st.SndMax = 4*mss, 4*mss
			st.Cwnd, st.Ssthresh = tc.cwnd, tc.ssthresh
			st.OnAck(&c, &recHost{}, mss, nil)
			if st.Cwnd != tc.want {
				t.Errorf("cwnd %v, ssthresh %v: a new ACK left cwnd %v, want %v", tc.cwnd, tc.ssthresh, st.Cwnd, tc.want)
			}
		})
	}
}
