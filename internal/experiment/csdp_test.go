package experiment

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"wtcp/internal/cell"
	"wtcp/internal/units"
)

func TestCSDPStudyOrdering(t *testing.T) {
	points, err := CSDPStudy(context.Background(), Options{Replications: 2, Transfer: 256 * units.KB}, CSDPOptions{
		Connections: 4,
		BadPeriods:  []time.Duration{time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want one per policy", len(points))
	}
	byPolicy := map[cell.Policy]float64{}
	for _, p := range points {
		byPolicy[p.Policy] = p.AggregateKbps.Mean()
	}
	if !(byPolicy[cell.RoundRobin] > byPolicy[cell.FIFO]) {
		t.Errorf("RR %.0f not above FIFO %.0f", byPolicy[cell.RoundRobin], byPolicy[cell.FIFO])
	}
	if !(byPolicy[cell.CSDP] > byPolicy[cell.FIFO]) {
		t.Errorf("CSDP %.0f not above FIFO %.0f", byPolicy[cell.CSDP], byPolicy[cell.FIFO])
	}
}

// TestCSDPStudyHonoursOracle pins that Options.Oracle reaches the study
// as the cell engine's sampled checker on every flow, and that checking
// moves no result bit.
func TestCSDPStudyHonoursOracle(t *testing.T) {
	axes := CSDPOptions{Connections: 3, BadPeriods: []time.Duration{time.Second}, Accuracy: 0.8}
	if got := csdpConfig(Options{Oracle: true}, axes, cell.CSDP, time.Second, 1).OracleSample; got != axes.Connections {
		t.Fatalf("oracle-on replication samples %d flows, want %d", got, axes.Connections)
	}
	if got := csdpConfig(Options{}, axes, cell.CSDP, time.Second, 1).OracleSample; got != 0 {
		t.Fatalf("oracle-off replication samples %d flows, want 0", got)
	}
	study := func(oracle bool) []CSDPPoint {
		points, err := CSDPStudy(context.Background(),
			Options{Replications: 2, Transfer: 128 * units.KB, Oracle: oracle}, axes)
		if err != nil {
			t.Fatalf("oracle=%v: %v", oracle, err)
		}
		return points
	}
	off, on := study(false), study(true)
	for i := range off {
		a, b := off[i], on[i]
		for _, v := range [][2]float64{
			{a.AggregateKbps.Mean(), b.AggregateKbps.Mean()},
			{a.AggregateKbps.StdDev(), b.AggregateKbps.StdDev()},
			{a.Fairness.Mean(), b.Fairness.Mean()},
			{a.DiscardsAvg, b.DiscardsAvg},
		} {
			if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
				t.Errorf("%v: oracle off %v, on %v", a.Policy, v[0], v[1])
			}
		}
	}
}

func TestCSDPRenderers(t *testing.T) {
	points, err := CSDPStudy(context.Background(), Options{Replications: 1, Transfer: 128 * units.KB}, CSDPOptions{
		Connections: 2,
		BadPeriods:  []time.Duration{time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	table := RenderCSDPTable("study", points)
	if !strings.Contains(table, "fifo") || !strings.Contains(table, "csdp") {
		t.Errorf("table malformed:\n%s", table)
	}
	csv := CSDPCSV(points)
	if !strings.Contains(csv, "roundrobin,1.0,") {
		t.Errorf("csv malformed:\n%s", csv)
	}
}

func TestCongestionStudyShape(t *testing.T) {
	points, err := CongestionStudy(context.Background(), Options{Replications: 2, Transfer: 40 * units.KB},
		CongestionOptions{Loads: []float64{0, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 2 schemes x 2 loads", len(points))
	}
	get := func(s string, load float64) CongestionPoint {
		for _, p := range points {
			if p.Scheme.String() == s && p.LoadFraction == load {
				return p
			}
		}
		t.Fatal("point missing")
		return CongestionPoint{}
	}
	// EBSN still wins under wired congestion (its benefit is orthogonal
	// to congestion losses).
	for _, load := range []float64{0, 0.6} {
		b := get("basic", load)
		e := get("ebsn", load)
		if e.ThroughputKbps.Mean() <= b.ThroughputKbps.Mean()*0.95 {
			t.Errorf("load %.0f%%: EBSN %.2f not above basic %.2f",
				100*load, e.ThroughputKbps.Mean(), b.ThroughputKbps.Mean())
		}
	}
	// Loading the wire does not increase throughput.
	e0, e6 := get("ebsn", 0), get("ebsn", 0.6)
	if e6.ThroughputKbps.Mean() > e0.ThroughputKbps.Mean()*1.05 {
		t.Errorf("EBSN throughput rose under congestion: %.2f -> %.2f",
			e0.ThroughputKbps.Mean(), e6.ThroughputKbps.Mean())
	}
	table := RenderCongestionTable("congestion", points)
	if !strings.Contains(table, "60%") {
		t.Errorf("table malformed:\n%s", table)
	}
}

func TestCrossTrafficHeavyLoadStillCompletes(t *testing.T) {
	// Saturating cross traffic (95% of the wire) plus the TCP transfer:
	// the run must still complete (TCP backs off) and the wired queue
	// must actually drop something.
	points, err := CongestionStudy(context.Background(), Options{Replications: 1, Transfer: 20 * units.KB},
		CongestionOptions{Loads: []float64{0.95}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.ThroughputKbps.Mean() <= 0 {
			t.Errorf("%v did not complete under heavy cross traffic", p.Scheme)
		}
	}
}
