package experiment

import (
	"context"
	"strings"
	"testing"
	"time"

	"wtcp/internal/handoff"
	"wtcp/internal/units"
)

func TestHandoffStudyShape(t *testing.T) {
	points, err := HandoffStudy(context.Background(), Options{Replications: 1, Transfer: 512 * units.KB},
		HandoffOptions{Dwells: []time.Duration{500 * time.Millisecond, 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 2 schemes x 2 dwells", len(points))
	}
	find := func(s handoff.Scheme, dwell time.Duration) HandoffPoint {
		for _, p := range points {
			if p.Scheme == s && p.Dwell == dwell {
				return p
			}
		}
		t.Fatal("point missing")
		return HandoffPoint{}
	}
	for _, dwell := range []time.Duration{500 * time.Millisecond, 2 * time.Second} {
		plain := find(handoff.Plain, dwell)
		fr := find(handoff.FastRetransmit, dwell)
		if fr.ThroughputKbps.Mean() <= plain.ThroughputKbps.Mean() {
			t.Errorf("dwell %v: fast retransmit %.0f not above plain %.0f",
				dwell, fr.ThroughputKbps.Mean(), plain.ThroughputKbps.Mean())
		}
		if fr.TimeoutsAvg >= plain.TimeoutsAvg {
			t.Errorf("dwell %v: fast retransmit timeouts %.1f not below plain %.1f",
				dwell, fr.TimeoutsAvg, plain.TimeoutsAvg)
		}
	}
	// More frequent handoffs hurt plain TCP more.
	p5, p2 := find(handoff.Plain, 500*time.Millisecond), find(handoff.Plain, 2*time.Second)
	if p5.ThroughputKbps.Mean() >= p2.ThroughputKbps.Mean() {
		t.Error("frequent handoffs did not reduce plain TCP throughput")
	}
}

func TestHandoffRenderers(t *testing.T) {
	points, err := HandoffStudy(context.Background(), Options{Replications: 1, Transfer: 256 * units.KB},
		HandoffOptions{Dwells: []time.Duration{time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	table := RenderHandoffTable("handoff", points)
	if !strings.Contains(table, "plain") || !strings.Contains(table, "fastretransmit") {
		t.Errorf("table malformed:\n%s", table)
	}
	csv := HandoffCSV(points)
	if !strings.Contains(csv, "plain,1.0,") {
		t.Errorf("csv malformed:\n%s", csv)
	}
}
