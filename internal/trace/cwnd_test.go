package trace

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// TestCwndSeriesRecordAndAccessors: the series is the stored stream's
// window-moving sender events, in order, and no other event.
func TestCwndSeriesRecordAndAccessors(t *testing.T) {
	tr := New(536)
	for _, e := range []Event{
		{At: time.Second, Kind: AckIn, AckClass: ackNew, Cwnd: 536, Ssthresh: 4096},
		{At: 1500 * time.Millisecond, Kind: Send, Cwnd: 536, Ssthresh: 4096},
		{At: 2 * time.Second, Kind: AckIn, AckClass: ackNew, Cwnd: 1072, Ssthresh: 4096},
		{At: 2500 * time.Millisecond, Kind: AckIn, AckClass: ackNew + 1, Cwnd: 1608, Ssthresh: 4096}, // duplicate
		{At: 3 * time.Second, Kind: Timeout, Cwnd: 536, Ssthresh: 2048},
		{At: 3500 * time.Millisecond, Kind: ARQFailure, Unit: 7},
		{At: 4 * time.Second, Kind: AckIn, AckClass: ackNew, Cwnd: 1072, Ssthresh: 2048},
		{At: 5 * time.Second, Kind: FastRetx, Cwnd: 536, Ssthresh: 1072},
		{At: 6 * time.Second, Kind: QuenchIn, Cwnd: 536, Ssthresh: 1072},
		{At: 7 * time.Second, Kind: ECNEcho, Cwnd: 536, Ssthresh: 536},
		{At: 8 * time.Second, Kind: EBSNReset, Cwnd: 536, Ssthresh: 536},
	} {
		tr.events = append(tr.events, e)
	}
	c := tr.Cwnd()
	want := CwndSeries{
		{time.Second, 536, 4096}, {2 * time.Second, 1072, 4096}, {3 * time.Second, 536, 2048},
		{4 * time.Second, 1072, 2048}, {5 * time.Second, 536, 1072}, {6 * time.Second, 536, 1072},
		{7 * time.Second, 536, 536},
	}
	if !slices.Equal(c, want) {
		t.Fatalf("series = %v, want %v", c, want)
	}
	if got := c.Max(); got != 1072 {
		t.Errorf("Max = %d", got)
	}
	if got := c.Collapses(536); got != 2 {
		t.Errorf("Collapses = %d, want 2", got)
	}
}

func TestCwndCSV(t *testing.T) {
	csv := CwndSeries{{1500 * time.Millisecond, 536, 2048}}.CSV()
	if !strings.Contains(csv, "time_sec,cwnd_bytes,ssthresh_bytes") ||
		!strings.Contains(csv, "1.500,536,2048") {
		t.Errorf("CSV malformed:\n%s", csv)
	}
}

func TestCwndRenderASCII(t *testing.T) {
	var c CwndSeries
	for i := 0; i < 50; i++ {
		c = append(c, CwndPoint{time.Duration(i) * time.Second, 536, 4096},
			CwndPoint{time.Duration(i)*time.Second + 500*time.Millisecond, 536 * 4, 4096})
	}
	out := c.RenderASCII(60, 12, 50*time.Second)
	if !strings.Contains(out, "*") || !strings.Contains(out, "congestion window") {
		t.Errorf("render malformed:\n%s", out)
	}
	// Degenerate cases stay safe.
	if CwndSeries(nil).RenderASCII(0, 0, 0) == "" {
		t.Error("empty series render failed")
	}
}
