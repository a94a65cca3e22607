package trace

import (
	"fmt"
	"strings"
	"time"

	"wtcp/internal/units"
)

// CwndPoint is one congestion-window observation.
type CwndPoint struct {
	At       time.Duration
	Cwnd     units.ByteSize
	Ssthresh units.ByteSize
}

// CwndSeries is the window's evolution — the classic companion plot to
// the paper's packet traces: basic TCP's window saws between one segment
// and the advertised window as fades force collapses, while EBSN's window
// stays pinned high.
type CwndSeries []CwndPoint

// ackNew is tcp.AckNew, the class of an ACK that advances snd_una.
const ackNew = 1

// Cwnd reads the window series off the stored sender events: one point,
// with the post-transition window and threshold, after each transition
// that moves them — a new ACK, a fast retransmit, a timeout, a source
// quench, an ECN echo. A duplicate ACK's Reno inflation is not a point.
func (tr *Trace) Cwnd() CwndSeries {
	var c CwndSeries
	for _, e := range tr.events {
		switch e.Kind {
		case AckIn:
			if e.AckClass != ackNew {
				continue
			}
		case FastRetx, Timeout, QuenchIn, ECNEcho:
		default:
			continue
		}
		c = append(c, CwndPoint{At: e.At, Cwnd: units.ByteSize(e.Cwnd), Ssthresh: units.ByteSize(e.Ssthresh)})
	}
	return c
}

// Collapses counts window resets to at most one segment of the given MSS.
func (c CwndSeries) Collapses(mss units.ByteSize) int {
	n := 0
	for i := 1; i < len(c); i++ {
		if c[i].Cwnd <= mss && c[i-1].Cwnd > mss {
			n++
		}
	}
	return n
}

// Max reports the largest window observed.
func (c CwndSeries) Max() units.ByteSize {
	var m units.ByteSize
	for _, p := range c {
		m = max(m, p.Cwnd)
	}
	return m
}

// CSV renders the series as time_sec,cwnd_bytes,ssthresh_bytes.
func (c CwndSeries) CSV() string {
	var b strings.Builder
	b.WriteString("time_sec,cwnd_bytes,ssthresh_bytes\n")
	for _, p := range c {
		fmt.Fprintf(&b, "%.3f,%d,%d\n", p.At.Seconds(), p.Cwnd, p.Ssthresh)
	}
	return b.String()
}

// RenderASCII draws cwnd over time on a width x height grid scaled to the
// largest window; a horizon of zero covers the whole series.
func (c CwndSeries) RenderASCII(width, height int, horizon time.Duration) string {
	if horizon <= 0 {
		horizon = time.Second
		for _, p := range c {
			horizon = max(horizon, p.At)
		}
	}
	top := max(c.Max(), 1)
	s := newScatter(max(width, 20), max(height, 8), horizon)
	for _, p := range c {
		s.plot(p.At, float64(p.Cwnd), float64(top), '*')
	}
	return s.frame(fmt.Sprintf("congestion window (top=%s)", top))
}
