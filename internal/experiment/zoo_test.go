package experiment

import (
	"context"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/tcp"
	"wtcp/internal/units"
)

// TestZooStudyGrid runs the full variant x scheme grid at a small
// transfer: every cell must complete oracle-clean (ZooStudy arms the
// conformance oracle on every run, so a profile violation surfaces as an
// error here) and the grid must cover all sixteen combinations.
func TestZooStudyGrid(t *testing.T) {
	pts, err := ZooStudy(context.Background(), Options{Replications: 1, Transfer: 30 * units.KB},
		ZooOptions{BadPeriod: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 16 {
		t.Fatalf("got %d grid cells, want 16 (4 variants x 4 schemes)", len(pts))
	}
	for _, v := range []tcp.Variant{tcp.Tahoe, tcp.Reno, tcp.NewReno, tcp.SACKVariant} {
		for _, s := range []bs.Scheme{bs.Basic, bs.EBSN, bs.Snoop, bs.SplitConnection} {
			tput, ok := ZooTable.Cell(pts, "throughput (Kbps)", v, s)
			g, _ := ZooTable.Cell(pts, "goodput", v, s)
			if !ok {
				t.Fatalf("missing cell %s/%s", v, s)
			}
			if tput <= 0 {
				t.Errorf("%s/%s: non-positive throughput", v, s)
			}
			if g <= 0 || g > 1 {
				t.Errorf("%s/%s: goodput %.3f outside (0, 1]", v, s, g)
			}
		}
	}
}
