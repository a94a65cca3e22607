package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wtcp/internal/sim"
)

func TestFigureTrace(t *testing.T) {
	out, _, err := wtcp("figures", "-fig", "5")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "EBSN resets") {
		t.Errorf("figure 5 output malformed:\n%s", out)
	}
}

func TestFigureTraceCSV(t *testing.T) {
	out, _, err := wtcp("figures", "-fig", "3", "-csv")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "time_sec,packet_mod_90,kind") {
		t.Errorf("CSV header missing:\n%.200s", out)
	}
}

func TestFigureSweepReducedReps(t *testing.T) {
	out, _, err := wtcp("figures", "-fig", "7", "-reps", "1")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "tput_th") {
		t.Errorf("figure 7 table malformed:\n%.400s", out)
	}
}

func TestFigureHandoff(t *testing.T) {
	out, _, err := wtcp("figures", "-fig", "handoff")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "fastretransmit") {
		t.Errorf("handoff table malformed:\n%s", out)
	}
}

func TestFigureUnknown(t *testing.T) {
	_, _, err := wtcp("figures", "-fig", "99")
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	for _, f := range figures {
		for _, name := range f.names {
			if !strings.Contains(err.Error(), name+"|") {
				t.Errorf("unknown-figure message %q does not offer -fig %s", err, name)
			}
		}
	}
}

// TestFigureStudyHonoursRunBudget: the execution flags reach the side
// studies. A 1000-event budget cannot fit a congestion run, so the study
// is a named resource-exhausted quarantine per point under supervision
// and a budget error without it.
func TestFigureStudyHonoursRunBudget(t *testing.T) {
	args := []string{"figures", "-fig", "congestion", "-reps", "1", "-max-events", "1000", "-csv"}
	table, stderr, err := wtcp(args...)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if strings.Count(table, "\n") != 1 {
		t.Errorf("every point should be quarantined, leaving the CSV header alone:\n%s", table)
	}
	if got := strings.Count(stderr, "quarantined: congestion/"); got != 6 || !strings.Contains(stderr, "resource-exhausted") {
		t.Errorf("stderr names %d quarantined congestion points, want 6 resource-exhausted:\n%s", got, stderr)
	}

	_, _, err = wtcp(append(args, "-supervise=false")...)
	var be *sim.BudgetError
	if !errors.As(err, &be) || be.Kind != sim.BudgetEvents {
		t.Errorf("unsupervised run returned %v, want an events *sim.BudgetError", err)
	}
}

func TestFigureZoo(t *testing.T) {
	out, _, err := wtcp("figures", "-fig", "zoo", "-reps", "1", "-csv")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := strings.Count(out, "\n"); got != 17 || !strings.Contains(out, "sack,snoop,") {
		t.Errorf("zoo CSV has %d lines, want a header and 16 cells:\n%s", got, out)
	}
}

func TestFigureOutDirectory(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := wtcp("figures", "-fig", "7", "-reps", "1", "-out", dir); err != nil {
		t.Fatalf("run: %v", err)
	}
	body, err := os.ReadFile(filepath.Join(dir, "fig7.csv"))
	if err != nil {
		t.Fatalf("fig7.csv not written: %v", err)
	}
	if !strings.Contains(string(body), "scheme,bad_period_sec") {
		t.Errorf("fig7.csv malformed:\n%.200s", body)
	}
}
