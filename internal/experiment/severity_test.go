package experiment

import (
	"context"
	"strings"
	"testing"
	"time"

	"wtcp/internal/units"
)

func TestSeverityStudyImprovementGrows(t *testing.T) {
	// The paper's conjecture: "we expect our schemes to yield even better
	// performance if wireless links are more lossy." Compare EBSN's
	// relative gain at a mild and a harsh severity step.
	points, err := SeverityStudy(context.Background(), Options{Replications: 5}, SeverityOptions{
		Severities: []struct {
			MeanBad time.Duration
			BadBER  float64
		}{
			{1 * time.Second, 1e-2},
			{6 * time.Second, 1e-2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	mild, harsh := points[0], points[1]
	if harsh.ImprovementPct <= mild.ImprovementPct {
		t.Errorf("EBSN improvement did not grow with severity: %.0f%% (bad=1s) vs %.0f%% (bad=6s)",
			mild.ImprovementPct, harsh.ImprovementPct)
	}
	if mild.ImprovementPct <= 0 {
		t.Errorf("no improvement even at mild severity: %.0f%%", mild.ImprovementPct)
	}
	// Throughputs degrade with severity for both schemes.
	if harsh.BasicKbps.Mean() >= mild.BasicKbps.Mean() {
		t.Error("basic TCP did not degrade with severity")
	}
	if harsh.EBSNKbps.Mean() >= mild.EBSNKbps.Mean() {
		t.Error("EBSN did not degrade with severity")
	}
}

func TestSeverityRenderer(t *testing.T) {
	points, err := SeverityStudy(context.Background(), Options{Replications: 1, Transfer: 20 * units.KB}, SeverityOptions{
		Severities: []struct {
			MeanBad time.Duration
			BadBER  float64
		}{{2 * time.Second, 1e-2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	table := RenderSeverityTable("severity", points)
	if !strings.Contains(table, "improvement") || !strings.Contains(table, "%") {
		t.Errorf("table malformed:\n%s", table)
	}
}
