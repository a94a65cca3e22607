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

// CwndSeries accumulates window-evolution samples — the classic companion
// plot to the paper's packet traces: basic TCP's window saws between one
// segment and the advertised window as fades force collapses, while
// EBSN's window stays pinned high.
type CwndSeries struct {
	points []CwndPoint
}

// NewCwndSeries returns an empty series.
func NewCwndSeries() *CwndSeries { return &CwndSeries{} }

// Record appends one observation.
func (c *CwndSeries) Record(at time.Duration, cwnd, ssthresh units.ByteSize) {
	c.points = append(c.points, CwndPoint{At: at, Cwnd: cwnd, Ssthresh: ssthresh})
}

// Hook returns a tcp.Hooks-compatible OnCwnd callback bound to a clock.
func (c *CwndSeries) Hook(now func() time.Duration) func(cwnd, ssthresh units.ByteSize) {
	return func(cwnd, ssthresh units.ByteSize) { c.Record(now(), cwnd, ssthresh) }
}

// Collapses counts window resets to at most one segment of the given MSS.
func (c *CwndSeries) Collapses(mss units.ByteSize) int {
	n := 0
	for i := 1; i < len(c.points); i++ {
		if c.points[i].Cwnd <= mss && c.points[i-1].Cwnd > mss {
			n++
		}
	}
	return n
}

// Max reports the largest window observed.
func (c *CwndSeries) Max() units.ByteSize {
	var m units.ByteSize
	for _, p := range c.points {
		if p.Cwnd > m {
			m = p.Cwnd
		}
	}
	return m
}

// CSV renders the series as time_sec,cwnd_bytes,ssthresh_bytes.
func (c *CwndSeries) CSV() string {
	var b strings.Builder
	b.WriteString("time_sec,cwnd_bytes,ssthresh_bytes\n")
	for _, p := range c.points {
		fmt.Fprintf(&b, "%.3f,%d,%d\n", p.At.Seconds(), p.Cwnd, p.Ssthresh)
	}
	return b.String()
}

// RenderASCII draws cwnd over time on a width x height grid scaled to the
// observed maxima.
func (c *CwndSeries) RenderASCII(width, height int, horizon time.Duration) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	if horizon <= 0 {
		for _, p := range c.points {
			if p.At > horizon {
				horizon = p.At
			}
		}
		if horizon == 0 {
			horizon = time.Second
		}
	}
	maxW := c.Max()
	if maxW == 0 {
		maxW = 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range c.points {
		if p.At > horizon {
			continue
		}
		x := int(float64(width-1) * float64(p.At) / float64(horizon))
		y := int(float64(height-1) * float64(p.Cwnd) / float64(maxW))
		grid[height-1-y][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "congestion window (top=%s)\n", maxW)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, " 0%*s\n", width-1, fmt.Sprintf("%.0fs", horizon.Seconds()))
	return b.String()
}
