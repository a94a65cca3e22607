package trace

import (
	"strings"
	"testing"
	"time"
)

func TestRenderComparison(t *testing.T) {
	left := New(100)
	left.events = append(left.events, Event{At: time.Second, Kind: Send, Seq: 0})
	left.events = append(left.events, Event{At: 5 * time.Second, Kind: Retransmit, Seq: 0})
	right := New(100)
	right.events = append(right.events, Event{At: time.Second, Kind: Send, Seq: 0})
	right.events = append(right.events, Event{At: 30 * time.Second, Kind: Send, Seq: 100 * 50})

	out := RenderComparison("basic", left, "ebsn", right, 40, 12, 60*time.Second)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title row + height rows + axis + labels + legend.
	if len(lines) != 1+12+1+1+1 {
		t.Fatalf("line count = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "basic") || !strings.Contains(lines[0], "ebsn") {
		t.Errorf("title row = %q", lines[0])
	}
	// Every grid row has two panels separated by spaces.
	for _, l := range lines[1 : 1+12] {
		if strings.Count(l, "|") != 2 {
			t.Errorf("grid row %q lacks two panels", l)
		}
	}
	if !strings.Contains(out, "o") {
		t.Error("left panel's retransmission mark missing")
	}
	if !strings.Contains(out, "60s") {
		t.Error("time axis labels missing")
	}
	// A zero horizon covers the longer trace on both panels.
	if out := RenderComparison("basic", left, "ebsn", right, 40, 12, 0); strings.Count(out, "30s") != 2 {
		t.Errorf("zero horizon did not scale both axes to the longer trace:\n%s", out)
	}
}

func TestRenderComparisonDegenerate(t *testing.T) {
	// Nil traces and tiny dimensions must not panic.
	out := RenderComparison("a-very-long-title-that-gets-clipped", nil, "b", nil, 1, 1, time.Second)
	if out == "" {
		t.Error("empty output")
	}
	if strings.Contains(out, "a-very-long-title-that-gets-clipped") {
		t.Error("title not clipped to panel width")
	}
}
