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

	"wtcp/internal/experiment"
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
	got, err := Generate(context.Background(), experiment.Options{Replications: 10, Workers: runtime.GOMAXPROCS(0), Supervise: experiment.NewSupervisor()}, false)
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
		return Generate(ctx, experiment.Options{Replications: 1, Checkpoint: checkpoint,
			Supervise: experiment.NewSupervisor(), OnPoint: onPoint}, true)
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
