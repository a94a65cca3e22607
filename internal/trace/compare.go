package trace

import (
	"fmt"
	"strings"
	"time"
)

// RenderComparison draws two traces side by side on a shared time axis —
// the visual argument of Figures 3 vs 5: the left panel's stalls and
// retransmission marks against the right panel's uninterrupted staircase.
func RenderComparison(leftTitle string, left *Trace, rightTitle string, right *Trace,
	panelWidth, height int, horizon time.Duration) string {
	if panelWidth < 20 {
		panelWidth = 20
	}
	if height < 10 {
		height = 10
	}
	lp := panelLines(left, panelWidth, height, horizon)
	rp := panelLines(right, panelWidth, height, horizon)

	var b strings.Builder
	fmt.Fprintf(&b, "%-*s   %s\n", panelWidth+1, clip(leftTitle, panelWidth), clip(rightTitle, panelWidth))
	for i := range lp {
		fmt.Fprintf(&b, "%s   %s\n", lp[i], rp[i])
	}
	axis := "+" + strings.Repeat("-", panelWidth)
	fmt.Fprintf(&b, "%s   %s\n", axis, axis)
	label := fmt.Sprintf(" 0%*s", panelWidth-1, fmt.Sprintf("%.0fs", horizon.Seconds()))
	fmt.Fprintf(&b, "%s   %s\n", label, label)
	b.WriteString("'.' send   'o' source retransmission   (packet number mod 90, bottom-up)\n")
	return b.String()
}

// panelLines renders one trace's scatter rows (no axes).
func panelLines(tr *Trace, width, height int, horizon time.Duration) []string {
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	if tr != nil {
		for _, e := range tr.events {
			if e.Kind != Send && e.Kind != Retransmit {
				continue
			}
			if horizon > 0 && e.At > horizon {
				continue
			}
			x := int(float64(width-1) * float64(e.At) / float64(horizon))
			y := int(float64(height-1) * float64(tr.packetNo(e.Seq)%PacketModulo) / float64(PacketModulo-1))
			row := height - 1 - y
			mark := byte('.')
			if e.Kind == Retransmit {
				mark = 'o'
			}
			if grid[row][x] == ' ' || mark == 'o' {
				grid[row][x] = mark
			}
		}
	}
	out := make([]string, height)
	for i, row := range grid {
		out[i] = "|" + string(row)
	}
	return out
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
