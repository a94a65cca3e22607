package experiment

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"wtcp/internal/core"
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
	find := func(scheme string, dwell time.Duration) HandoffPoint {
		for _, p := range points {
			if p.Scheme == scheme && p.Dwell == dwell {
				return p
			}
		}
		t.Fatal("point missing")
		return HandoffPoint{}
	}
	for _, dwell := range []time.Duration{500 * time.Millisecond, 2 * time.Second} {
		plain := find("plain", dwell)
		fr := find("fastretransmit", dwell)
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
	p5, p2 := find("plain", 500*time.Millisecond), find("plain", 2*time.Second)
	if p5.ThroughputKbps.Mean() >= p2.ThroughputKbps.Mean() {
		t.Error("frequent handoffs did not reduce plain TCP throughput")
	}
}

// TestHandoffStudyUnderOracleAndChecks: the study's runs are ordinary core
// runs, so the conformance oracle and the invariant checks ride along and
// change no number.
func TestHandoffStudyUnderOracleAndChecks(t *testing.T) {
	axes := HandoffOptions{Dwells: []time.Duration{time.Second}}
	bare, err := HandoffStudy(context.Background(), Options{Replications: 1, Transfer: 256 * units.KB}, axes)
	if err != nil {
		t.Fatal(err)
	}
	armed, err := HandoffStudy(context.Background(), Options{Replications: 1, Transfer: 256 * units.KB, Oracle: true, Checks: true}, axes)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := HandoffCSV(armed), HandoffCSV(bare); got != want {
		t.Errorf("oracle and checks moved the study:\n%s--- bare ---\n%s", got, want)
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

// runHandoff runs one HandoffConfig scenario to completion.
func runHandoff(t *testing.T, cfg core.Config) *core.Result {
	t.Helper()
	r, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("transfer did not complete: %+v", r.Summary)
	}
	return r
}

func TestNoHandoffsMeansCleanTransfer(t *testing.T) {
	r := runHandoff(t, HandoffConfig(time.Hour, 100*time.Millisecond, false)) // never triggers within the transfer
	if r.Chaos.Handoffs != 0 || r.Summary.Timeouts != 0 || r.Chaos.HandoffDrops != 0 {
		t.Errorf("clean run saw events: %+v %+v", r.Chaos, r.Summary)
	}
	// ~1.4-1.6 Mbps payload through a 2 Mbps stop-free cell.
	if r.Summary.ThroughputKbps < 1200 {
		t.Errorf("clean throughput = %.0f kbps", r.Summary.ThroughputKbps)
	}
}

func TestPlainTCPSuffersTimeoutsPerHandoff(t *testing.T) {
	r := runHandoff(t, HandoffConfig(time.Second, 100*time.Millisecond, false))
	if r.Chaos.Handoffs == 0 {
		t.Fatal("no handoffs happened")
	}
	if r.Summary.Timeouts == 0 {
		t.Error("plain TCP recovered without timeouts (losses should force RTO)")
	}
	if r.Chaos.HandoffDrops == 0 {
		t.Error("no packets lost to handoffs")
	}
}

func TestFastRetransmitEliminatesTimeouts(t *testing.T) {
	plain := runHandoff(t, HandoffConfig(time.Second, 100*time.Millisecond, false))
	fr := runHandoff(t, HandoffConfig(time.Second, 100*time.Millisecond, true))
	if fr.Summary.Timeouts >= plain.Summary.Timeouts {
		t.Errorf("fast retransmit timeouts %d not below plain %d", fr.Summary.Timeouts, plain.Summary.Timeouts)
	}
	if fr.Summary.FastRetransmits == 0 {
		t.Error("the dupack nudge never triggered a fast retransmit")
	}
	// The headline: the transfer finishes sooner.
	if fr.Summary.Elapsed >= plain.Summary.Elapsed {
		t.Errorf("fast retransmit elapsed %v not below plain %v", fr.Summary.Elapsed, plain.Summary.Elapsed)
	}
}

func TestLongerGapsHurtMore(t *testing.T) {
	short := runHandoff(t, HandoffConfig(time.Second, 50*time.Millisecond, false))
	long := runHandoff(t, HandoffConfig(time.Second, 500*time.Millisecond, false))
	if long.Summary.Elapsed <= short.Summary.Elapsed {
		t.Errorf("500ms gaps (%v) not slower than 50ms gaps (%v)", long.Summary.Elapsed, short.Summary.Elapsed)
	}
}

func TestHandoffRunsAreDeterministic(t *testing.T) {
	cfg := HandoffConfig(time.Second, 100*time.Millisecond, true)
	a, b := runHandoff(t, cfg), runHandoff(t, cfg)
	if a.Summary != b.Summary || *a.Chaos != *b.Chaos {
		t.Errorf("same configuration diverged (run should be deterministic):\n%+v %+v\n%+v %+v", a.Summary, a.Chaos, b.Summary, b.Chaos)
	}
}

func TestLongTransferAcrossManyHandoffs(t *testing.T) {
	cfg := HandoffConfig(500*time.Millisecond, 100*time.Millisecond, true)
	cfg.TransferSize = 4 * units.MB
	if r := runHandoff(t, cfg); r.Chaos.Handoffs < 10 {
		t.Errorf("handoffs = %d, want many", r.Chaos.Handoffs)
	}
}

// ExampleHandoffConfig reproduces the mobility mitigation from [Caceres &
// Iftode 94]: re-sending three duplicate acks after a cell switch
// converts every post-handoff RTO stall into a fast retransmit.
func ExampleHandoffConfig() {
	plain, err := core.Run(HandoffConfig(time.Second, 100*time.Millisecond, false))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fr, err := core.Run(HandoffConfig(time.Second, 100*time.Millisecond, true))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("plain timeouts > 0:       ", plain.Summary.Timeouts > 0)
	fmt.Println("fast-retransmit timeouts: ", fr.Summary.Timeouts)
	fmt.Println("fast retransmit is faster:", fr.Summary.Elapsed < plain.Summary.Elapsed)
	// Output:
	// plain timeouts > 0:        true
	// fast-retransmit timeouts:  0
	// fast retransmit is faster: true
}
