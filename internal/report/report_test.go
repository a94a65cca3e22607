package report

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/experiment"
	"wtcp/internal/sim"
	"wtcp/internal/stats"
	"wtcp/internal/units"
)

func TestGenerateQuickReport(t *testing.T) {
	md, err := Generate(context.Background(), experiment.Options{Replications: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	wantSections := []string{
		"# Replication report",
		"## Figures 3-5",
		"### Basic TCP (Fig 7)",
		"### EBSN (Fig 8)",
		"## Figure 9",
		"## Figures 10-11",
		"## Cell-scale simulation (struct-of-arrays engine)",
		"## Claim-by-claim verdicts",
	}
	for _, w := range wantSections {
		if !strings.Contains(md, w) {
			t.Errorf("report missing section %q", w)
		}
	}
	// The markdown tables must be well formed (headers followed by
	// separator rows).
	if !strings.Contains(md, "| pkt size |") || !strings.Contains(md, "| tput_th |") {
		t.Error("throughput tables malformed")
	}
	// Every checked claim must reproduce at this scale.
	if !AllReproduced(md) {
		failing := []string{}
		for _, line := range strings.Split(md, "\n") {
			if strings.Contains(line, "NOT reproduced") {
				failing = append(failing, line)
			}
		}
		t.Errorf("claims failed to reproduce:\n%s", strings.Join(failing, "\n"))
	}
}

// TestQuickReportListsQuarantines: a budget too small for the smallest
// packets quarantines those points for the whole suite, and the report,
// given no Health of its own, lists every one in its "Quarantined
// points" table and fails the claim that none was.
func TestQuickReportListsQuarantines(t *testing.T) {
	md, err := Generate(context.Background(), experiment.Options{Replications: 1, RunBudget: sim.Budget{MaxEvents: 2000}}, true)
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(md, "## Quarantined points\n\n")
	section, _, _ = strings.Cut(section, "## Claim-by-claim verdicts")
	rows := strings.Count(section, "| resource-exhausted | 1 | (local) | ")
	if rows == 0 || !strings.Contains(section, fmt.Sprintf("The circuit breaker removed %d point(s)", rows)) ||
		!strings.Contains(section, "| `wan/basic/bad=1s/size=128` |") {
		t.Errorf("quarantine section lists %d resource-exhausted rows:\n%s", rows, section)
	}
	if AllReproduced(md) || !strings.Contains(md, fmt.Sprintf("| Supervision: no sweep point was quarantined | NOT reproduced | %d point(s)", rows)) {
		t.Error("a report with quarantines claims every point reproduced")
	}
}

func TestAllReproducedDetection(t *testing.T) {
	if !AllReproduced("text **All checked claims reproduced.** more") {
		t.Error("positive marker not detected")
	}
	if AllReproduced("**Some claims were NOT reproduced") {
		t.Error("negative report reported as clean")
	}
}

func TestGenerateDefaultsApplied(t *testing.T) {
	// Zero replications default to 5, the engine's default, which the
	// report header states; just verify the options path (the
	// full-fidelity run itself is exercised by wtcp report usage and the
	// quick path above).
	opt := experiment.Options{}.WithDefaults()
	if opt.Replications != 5 {
		t.Errorf("default replications = %d", opt.Replications)
	}
}

// TestReplicationMDMatchesGenerator: the committed REPLICATION.md is what
// `make report` (10 replications) generates, byte for byte — a change
// that moves any reported number must regenerate the document and show
// the difference. The output does not depend on the width, so the
// generator runs on every core.
func TestReplicationMDMatchesGenerator(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity report")
	}
	want, err := os.ReadFile("../../REPLICATION.md")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Generate(context.Background(), experiment.Options{Replications: 10, Workers: runtime.GOMAXPROCS(0)}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("REPLICATION.md differs from the generator's output; regenerate with `make report` and review the diff\n%s",
			firstDifference(string(want), got))
	}
}

// firstDifference shows the first line two documents disagree on.
func firstDifference(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  committed: %s\n  generated: %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("committed has %d lines, generated %d", len(w), len(g))
}

// TestQuickReportResumesFromOneCheckpointPath is the regression for a
// report refused on every checkpointed run: its studies run under
// several options fingerprints (transfer sizes, axes) and one path, so
// each fingerprint must get its own ledger file. A quick report killed
// in the middle of the zoo grid and rerun, and a third pass over the
// finished ledgers, must both equal an uninterrupted report.
func TestQuickReportResumesFromOneCheckpointPath(t *testing.T) {
	checkpoint := ""
	generate := func(ctx context.Context, onPoint func(key string)) (string, error) {
		return Generate(ctx, experiment.Options{Replications: 1, Checkpoint: checkpoint, OnPoint: onPoint}, true)
	}
	want, err := generate(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	checkpoint = filepath.Join(t.TempDir(), "report.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	zooDone := 0
	_, err = generate(ctx, func(key string) {
		if strings.HasPrefix(key, "zoo/") {
			if zooDone++; zooDone == 5 {
				cancel()
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted report returned %v, want context.Canceled", err)
	}

	fresh := 0
	resumed, err := generate(context.Background(), func(string) { fresh++ })
	if err != nil {
		t.Fatal(err)
	}
	if resumed != want {
		t.Errorf("resumed report differs from an uninterrupted one\n%s", firstDifference(want, resumed))
	}
	if fresh != 16-5 {
		t.Errorf("resume computed %d fresh points, want the zoo's remaining 11", fresh)
	}
	reloaded, err := generate(context.Background(), func(key string) { t.Errorf("finished report recomputed %s", key) })
	if err != nil {
		t.Fatal(err)
	}
	if reloaded != want {
		t.Errorf("reloaded report differs from an uninterrupted one\n%s", firstDifference(want, reloaded))
	}
}

// TestMissingCellIsNotReproduced: a claim whose input cell a quarantine
// left out reads "NOT reproduced", never a comparison against zero.
func TestMissingCellIsNotReproduced(t *testing.T) {
	const bad = 4 * time.Second
	const small, large units.ByteSize = 128, 1536
	point := func(scheme bs.Scheme, size units.ByteSize, kbps float64) experiment.ThroughputPoint {
		var s stats.Sample
		s.Add(kbps)
		return experiment.ThroughputPoint{Scheme: scheme, BadPeriod: bad, PacketSize: size, ThroughputKbps: &s, TheoreticalMaxKbps: 9.14}
	}
	fig7 := []experiment.ThroughputPoint{point(bs.Basic, small, 4), point(bs.Basic, large, 5)}
	fig8 := []experiment.ThroughputPoint{point(bs.EBSN, small, 6), point(bs.EBSN, large, 8.5)}
	verdict := func(fig7, fig8 []experiment.ThroughputPoint, text string) claim {
		var v verdicts
		v.wan(fig7, fig8, bad, small, large, false)
		for _, c := range v {
			if c.text == text {
				return c
			}
		}
		t.Fatalf("no claim %q", text)
		return claim{}
	}
	const beats = "Figs 7 vs 8: EBSN beats basic TCP at the largest packet size"
	const ceiling = "Fig 8: EBSN approaches tput_th for large packets (>= 80%)"

	if c := verdict(fig7, fig8, beats); !c.ok || c.note != "8.50 vs 5.00 (+70%)" {
		t.Errorf("full grid: %+v", c)
	}
	// Basic TCP's largest-size cell quarantined: nothing to beat.
	if c := verdict(fig7[:1], fig8, beats); c.ok || c.note != "point quarantined" {
		t.Errorf("basic's %v cell removed: %+v, want NOT reproduced, point quarantined", large, c)
	}
	// Every Figure 7 point at the longest bad period quarantined: the
	// ceiling claim reads EBSN's own cell and its tput_th, not a zero.
	if c := verdict(nil, fig8, ceiling); !c.ok || c.note != "8.50 of 9.14" {
		t.Errorf("fig7 at bad=%v removed: %+v, want 8.50 of 9.14", bad, c)
	}
	// EBSN's own cell quarantined: the ceiling claim has no input.
	if c := verdict(fig7, fig8[:1], ceiling); c.ok || c.note != "point quarantined" {
		t.Errorf("EBSN's %v cell removed: %+v, want NOT reproduced, point quarantined", large, c)
	}
	// Basic's largest-size point kept with its keys only, as a sweep
	// returns a quarantined point: the optimum is not judged without it,
	// and the sweep average skips it.
	const interior = "Fig 7: basic TCP's optimal packet size is interior (not the largest size)"
	const belowMax = "Fig 7: basic TCP sits well below the theoretical maximum"
	keyOnly := []experiment.ThroughputPoint{fig7[0], fig7[1]}
	keyOnly[1].ThroughputKbps = nil
	if c := verdict(fig7, fig8, interior); c.ok || c.note != "optimum at 1536B" {
		t.Errorf("full grid: %+v, want NOT reproduced, optimum at 1536B", c)
	}
	if c := verdict(keyOnly, fig8, interior); c.ok || c.note != "point quarantined" {
		t.Errorf("basic's %v point key-only: %+v, want NOT reproduced, point quarantined", large, c)
	}
	if c := verdict(keyOnly, fig8, belowMax); !c.ok || c.note != "mean 4.00 vs mean tput_th 9.14" {
		t.Errorf("basic's %v point key-only: %+v, want the mean of the measured point", large, c)
	}
}
