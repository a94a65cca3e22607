package trace

import (
	"fmt"
	"strings"
	"time"
)

// RenderComparison draws two traces side by side on a shared time axis —
// the visual argument of Figures 3 vs 5: the left panel's stalls and
// retransmission marks against the right panel's uninterrupted staircase.
// A horizon of zero covers the longer trace.
func RenderComparison(leftTitle string, left *Trace, rightTitle string, right *Trace,
	panelWidth, height int, horizon time.Duration) string {
	panelWidth, height = max(panelWidth, 20), max(height, 10)
	if horizon <= 0 {
		horizon = max(left.span(), right.span())
	}
	l, r := newScatter(panelWidth, height, horizon), newScatter(panelWidth, height, horizon)
	left.plot(l)
	right.plot(r)
	lp, rp := l.rows(), r.rows()

	var b strings.Builder
	fmt.Fprintf(&b, "%-*s   %s\n", panelWidth+1, clip(leftTitle, panelWidth), clip(rightTitle, panelWidth))
	for i := range lp {
		fmt.Fprintf(&b, "%s   %s\n", lp[i], rp[i])
	}
	axis, label := l.axis()
	fmt.Fprintf(&b, "%s   %s\n", axis, axis)
	fmt.Fprintf(&b, "%s   %s\n", label, label)
	b.WriteString("'.' send   'o' source retransmission   (packet number mod 90, bottom-up)\n")
	return b.String()
}

// scatter is the one plotter behind the package's terminal renderings: a
// width x height character grid over [0, horizon] seconds, its origin
// bottom-left like the paper's plots, framed by '|' rows, a '+---' time
// axis and a seconds label.
type scatter struct {
	grid    [][]byte
	horizon time.Duration
}

func newScatter(width, height int, horizon time.Duration) *scatter {
	s := &scatter{grid: make([][]byte, height), horizon: horizon}
	for i := range s.grid {
		s.grid[i] = []byte(strings.Repeat(" ", width))
	}
	return s
}

// plot marks the point at time at and height v on a vertical axis from 0
// to top. Points past the horizon are left out, and a '.' never covers
// another mark.
func (s *scatter) plot(at time.Duration, v, top float64, mark byte) {
	if at > s.horizon {
		return
	}
	width, height := len(s.grid[0]), len(s.grid)
	x := int(float64(width-1) * float64(at) / float64(s.horizon))
	row := height - 1 - int(float64(height-1)*v/top)
	if s.grid[row][x] == ' ' || mark != '.' {
		s.grid[row][x] = mark
	}
}

// rows returns the grid's rows, each behind its '|' edge.
func (s *scatter) rows() []string {
	out := make([]string, len(s.grid))
	for i, row := range s.grid {
		out[i] = "|" + string(row)
	}
	return out
}

// axis returns the time axis under the grid and its seconds label.
func (s *scatter) axis() (line, label string) {
	width := len(s.grid[0])
	return "+" + strings.Repeat("-", width), fmt.Sprintf(" 0%*s", width-1, fmt.Sprintf("%.0fs", s.horizon.Seconds()))
}

// frame renders the grid under a header line, with its axis and label.
func (s *scatter) frame(header string) string {
	axis, label := s.axis()
	return header + "\n" + strings.Join(s.rows(), "\n") + "\n" + axis + "\n" + label + "\n"
}

// clip truncates a title to the panel width.
func clip(s string, w int) string {
	if len(s) <= w {
		return s
	}
	return s[:w]
}

// Divergence pinpoints the first difference between two event sequences:
// the event index, the field that differs, and both rendered values.
type Divergence struct {
	Index int
	Field string
	A, B  string
}

// String renders the divergence for drift reports.
func (d *Divergence) String() string {
	return fmt.Sprintf("event %d: %s differs: %s != %s", d.Index, d.Field, d.A, d.B)
}

// DiffEvents returns the first divergence between two event sequences, or
// nil when they match. Durations compare within tol (so decoded goldens,
// normalized to microseconds, match fresh nanosecond-precision runs), with
// one exception: an idle timer (negative deadline) never matches an armed
// one, regardless of tolerance. A length mismatch diverges at the first
// index present in only one sequence, with field "missing".
func DiffEvents(a, b []Event, tol time.Duration) *Divergence {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if d := diffEvent(a[i], b[i], tol); d != nil {
			d.Index = i
			return d
		}
	}
	if len(a) != len(b) {
		d := &Divergence{Index: n, Field: "missing", A: "-", B: "-"}
		if len(a) > n {
			d.A = fmt.Sprintf("%s %s seq=%d", encodeDuration(a[n].At), a[n].Kind, a[n].Seq)
		} else {
			d.B = fmt.Sprintf("%s %s seq=%d", encodeDuration(b[n].At), b[n].Kind, b[n].Seq)
		}
		return d
	}
	return nil
}

// diffEvent compares one event pair; Index is filled by the caller.
func diffEvent(a, b Event, tol time.Duration) *Divergence {
	if a.Kind != b.Kind {
		return &Divergence{Field: "kind", A: a.Kind.String(), B: b.Kind.String()}
	}
	durs := []struct {
		name string
		a, b time.Duration
	}{
		{"at", a.At, b.At},
		{"rto", a.RTO, b.RTO},
		{"deadline", a.Deadline, b.Deadline},
	}
	for _, f := range durs {
		if !durationsMatch(f.a, f.b, tol) {
			return &Divergence{Field: f.name, A: encodeDuration(f.a), B: encodeDuration(f.b)}
		}
	}
	ints := []struct {
		name string
		a, b int64
	}{
		{"seq", a.Seq, b.Seq},
		{"payload", a.Payload, b.Payload},
		{"ack", a.Ack, b.Ack},
		{"ackclass", int64(a.AckClass), int64(b.AckClass)},
		{"cwnd", a.Cwnd, b.Cwnd},
		{"ssthresh", a.Ssthresh, b.Ssthresh},
		{"snduna", a.SndUna, b.SndUna},
		{"sndnxt", a.SndNxt, b.SndNxt},
		{"sndmax", a.SndMax, b.SndMax},
		{"shift", int64(a.Shift), int64(b.Shift)},
		{"dupacks", int64(a.DupAcks), int64(b.DupAcks)},
		{"attempt", int64(a.Attempt), int64(b.Attempt)},
		{"unit", int64(a.Unit), int64(b.Unit)},
		{"pkt", int64(a.Pkt), int64(b.Pkt)},
	}
	for _, f := range ints {
		if f.a != f.b {
			return &Divergence{Field: f.name, A: fmt.Sprint(f.a), B: fmt.Sprint(f.b)}
		}
	}
	return nil
}

// durationsMatch compares within tol, treating any negative value as the
// idle-timer sentinel: idle matches only idle.
func durationsMatch(a, b, tol time.Duration) bool {
	if a < 0 || b < 0 {
		return a < 0 && b < 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
