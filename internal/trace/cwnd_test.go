package trace

import (
	"strings"
	"testing"
	"time"
)

func TestCwndSeriesRecordAndAccessors(t *testing.T) {
	c := NewCwndSeries()
	c.Record(time.Second, 536, 4096)
	c.Record(2*time.Second, 1072, 4096)
	c.Record(3*time.Second, 536, 2048) // collapse
	c.Record(4*time.Second, 1072, 2048)
	pts := c.points
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[2].Ssthresh != 2048 {
		t.Error("ssthresh not recorded")
	}
	if got := c.Max(); got != 1072 {
		t.Errorf("Max = %d", got)
	}
	if got := c.Collapses(536); got != 1 {
		t.Errorf("Collapses = %d, want 1", got)
	}
}

func TestCwndHookBindsClock(t *testing.T) {
	c := NewCwndSeries()
	now := 5 * time.Second
	hook := c.Hook(func() time.Duration { return now })
	hook(536, 4096)
	if pts := c.points; len(pts) != 1 || pts[0].At != 5*time.Second {
		t.Errorf("hook recorded %+v", c.points)
	}
}

func TestCwndCSV(t *testing.T) {
	c := NewCwndSeries()
	c.Record(1500*time.Millisecond, 536, 2048)
	csv := c.CSV()
	if !strings.Contains(csv, "time_sec,cwnd_bytes,ssthresh_bytes") ||
		!strings.Contains(csv, "1.500,536,2048") {
		t.Errorf("CSV malformed:\n%s", csv)
	}
}

func TestCwndRenderASCII(t *testing.T) {
	c := NewCwndSeries()
	for i := 0; i < 50; i++ {
		c.Record(time.Duration(i)*time.Second, 536*(1+536*0), 4096)
		c.Record(time.Duration(i)*time.Second+500*time.Millisecond, 536*4, 4096)
	}
	out := c.RenderASCII(60, 12, 50*time.Second)
	if !strings.Contains(out, "*") || !strings.Contains(out, "congestion window") {
		t.Errorf("render malformed:\n%s", out)
	}
	// Degenerate cases stay safe.
	if NewCwndSeries().RenderASCII(0, 0, 0) == "" {
		t.Error("empty series render failed")
	}
}
