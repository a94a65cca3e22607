package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
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
// is a named resource-exhausted quarantine per point, the one failure
// policy: there is no flag to fail the run instead.
func TestFigureStudyHonoursRunBudget(t *testing.T) {
	args := []string{"figures", "-fig", "congestion", "-reps", "1", "-max-events", "1000", "-csv"}
	table, stderr, err := wtcp(args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Count(table, "\n") != 1 {
		t.Errorf("every point should be quarantined, leaving the CSV header alone:\n%s", table)
	}
	if got := strings.Count(stderr, "quarantined: congestion/"); got != 6 || !strings.Contains(stderr, "resource-exhausted") ||
		!strings.Contains(stderr, "events budget") {
		t.Errorf("stderr names %d quarantined congestion points, want 6 events-budget resource-exhausted:\n%s", got, stderr)
	}

	if _, _, err = wtcp(append(args, "-supervise=false")...); err == nil || !strings.Contains(err.Error(), "-supervise") {
		t.Errorf("-supervise=false returned %v, want the flag refused as undefined", err)
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

// TestCommittedFigures pins the committed CSV artifacts: `make figures`
// (-fig all -reps 10 -out figures) rewrites every file under figures/
// byte for byte, and writes no file that is not committed there.
func TestCommittedFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure at 10 replications")
	}
	dir := t.TempDir()
	workers := strconv.Itoa(runtime.GOMAXPROCS(0))
	if _, _, err := wtcp("figures", "-fig", "all", "-reps", "10", "-workers", workers, "-out", dir); err != nil {
		t.Fatalf("run: %v", err)
	}
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := filepath.Glob(filepath.Join("..", "..", "figures", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(committed) {
		t.Errorf("wrote %d files, figures/ commits %d", len(written), len(committed))
	}
	for _, f := range written {
		got, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "figures", f.Name()))
		if err != nil {
			t.Errorf("%s is written but not committed under figures/: %v", f.Name(), err)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("figures/%s differs from what -fig all -reps 10 writes; regenerate with make figures", f.Name())
		}
	}
}

// TestBudgetedCheckpointAnswersOnlyItsBudget: the points a -max-events
// run quarantined reload from its checkpoint, without a run, under that
// budget or a smaller one (a run under -max-events 2000 would report
// limit 2000; the reloaded records say 3000), while the same command
// without the budget measures them: no quarantined line, and the table
// a checkpoint-less run prints.
func TestBudgetedCheckpointAnswersOnlyItsBudget(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	fig := func(args ...string) (table, quarantined string) {
		t.Helper()
		out, errOut, err := wtcp(append([]string{"figures", "-fig", "7", "-reps", "1"}, args...)...)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		for _, line := range strings.SplitAfter(errOut, "\n") {
			if strings.HasPrefix(line, "quarantined: ") {
				quarantined += line
			}
		}
		return out, quarantined
	}
	_, first := fig("-max-events", "3000", "-checkpoint", ck)
	if !strings.Contains(first, "events budget exhausted") {
		t.Fatalf("-max-events 3000 quarantined no point:\n%s", first)
	}
	for _, limit := range []string{"3000", "2000"} {
		if _, again := fig("-max-events", limit, "-checkpoint", ck); again != first {
			t.Errorf("rerun under -max-events %s printed\n%s\nwant the recorded quarantines\n%s", limit, again, first)
		}
	}
	fresh, _ := fig()
	if table, quarantined := fig("-checkpoint", ck); quarantined != "" || table != fresh {
		t.Errorf("unbudgeted resume printed quarantines\n%s\nand a table equal to a fresh run's: %v", quarantined, table == fresh)
	}
}
