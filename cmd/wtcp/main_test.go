package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"wtcp/internal/experiment"
	"wtcp/internal/sim"
)

// wtcp runs one command line through the dispatcher and returns what the
// subcommand wrote on stdout and stderr and the error it failed with.
func wtcp(args ...string) (stdout, stderr string, err error) {
	var out, errOut strings.Builder
	_, err = dispatch(context.Background(), args, &out, &errOut)
	return out.String(), errOut.String(), err
}

// TestDispatch pins the front end itself: the usage lists every
// subcommand, an unknown one is refused by name, and a verdict that does
// not reproduce exits 2 from both report and repro.
func TestDispatch(t *testing.T) {
	var usage strings.Builder
	if code := run([]string{"-h"}, &usage, io.Discard); code != 0 {
		t.Errorf("wtcp -h exited %d, want 0", code)
	}
	for _, c := range commands {
		if !strings.Contains(usage.String(), "  "+c.name+" ") {
			t.Errorf("usage does not list %q:\n%s", c.name, usage.String())
		}
	}

	for _, args := range [][]string{{"bogus"}, {"fleet", "shard"}} {
		var stderr strings.Builder
		name := strings.Join(args, " ")
		if code := run(args, io.Discard, &stderr); code != 1 || !strings.Contains(stderr.String(), `unknown subcommand "`+name+`"`) {
			t.Errorf("wtcp %s exited %d with %q, want 1 naming the subcommand", name, code, stderr.String())
		}
	}

	if code := run([]string{"repro", "-bundle", healedBundle(t)}, io.Discard, io.Discard); code != 2 {
		t.Errorf("repro of a healed bundle exited %d, want 2 (not reproduced)", code)
	}
	// A one-event budget quarantines every sweep point, so the report's
	// supervision claim fails.
	var md strings.Builder
	if code := run([]string{"report", "-quick", "-reps", "1", "-max-events", "1"}, &md, io.Discard); code != 2 {
		t.Errorf("report with every point quarantined exited %d, want 2", code)
	}
	if !strings.Contains(md.String(), "NOT reproduced") {
		t.Errorf("report printed no failed claim:\n%s", md.String())
	}
}

// TestREADMENamesEverySubcommand: README.md is where the commands are
// documented, so each row of the subcommand table appears there by its
// full name.
func TestREADMENamesEverySubcommand(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range commands {
		if !strings.Contains(string(readme), "wtcp "+c.name) {
			t.Errorf("README.md never names `wtcp %s`", c.name)
		}
	}
}

// TestExecutionFlags: each engine-backed subcommand turns the shared
// execution flags into the same experiment.Options and run budget, and
// its own flags leave them alone.
func TestExecutionFlags(t *testing.T) {
	budget := []string{"-max-events", "5000", "-max-vtime", "3m", "-run-deadline", "1m", "-max-heap", "1048576", "-no-run-budget"}
	full := []string{"-reps", "3", "-seed", "7", "-checkpoint", "ck.json", "-workers", "2", "-repro", "bundles", "-supervise=false"}
	wantBudget := sim.Budget{MaxEvents: 5000, MaxVirtual: 3 * time.Minute, WallClock: time.Minute, MaxHeapBytes: 1 << 20}
	parse := func(c command, args []string) experiment.Options {
		t.Helper()
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		options := executionFlags(fs, c.exec)
		c.flags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%s %q: %v", c.name, args, err)
		}
		opt, stop := options(io.Discard)
		stop()
		if opt.Health == nil {
			t.Errorf("%s: no heartbeat", c.name)
		}
		opt.Health = nil
		return opt
	}

	engineBacked := 0
	for _, c := range commands {
		switch c.exec {
		case noExec:
			continue
		case budgetExec:
			want := experiment.Options{RunBudget: wantBudget, NoRunBudget: true}
			if got := parse(c, budget); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: options %+v, want %+v", c.name, got, want)
			}
		case fullExec:
			want := experiment.Options{Replications: 3, BaseSeed: 7, Checkpoint: "ck.json", Workers: 2,
				ReproDir: "bundles", RunBudget: wantBudget, NoRunBudget: true}
			if got := parse(c, append(full, budget...)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: options %+v, want %+v", c.name, got, want)
			}
			if def := parse(c, nil); def.Replications != 5 || def.BaseSeed != 0 || def.Workers != 1 || def.Supervise == nil {
				t.Errorf("%s: default options %+v, want 5 replications, seed 0, 1 worker, supervised", c.name, def)
			}
		}
		engineBacked++
	}
	if engineBacked != 4 {
		t.Errorf("%d engine-backed subcommands, want sim, figures, report and advise", engineBacked)
	}
}

// TestCancelledContextStopsAdviseAndSim: advise and sim run under the
// dispatcher's context, so an interrupt stops them before any run
// finishes instead of killing the process mid-sweep.
func TestCancelledContextStopsAdviseAndSim(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{{"advise", "-reps", "1"}, {"sim", "-transfer", "20", "-reps", "3"}} {
		status := filepath.Join(t.TempDir(), "status.json")
		var stdout strings.Builder
		if _, err := dispatch(ctx, append(args, "-status", status), &stdout, io.Discard); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context returned %v, want context.Canceled", args[0], err)
		}
		data, err := os.ReadFile(status)
		if err != nil {
			t.Fatal(err)
		}
		var snap experiment.HealthSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Completed != 0 || strings.Contains(stdout.String(), "throughput") {
			t.Errorf("%s finished %d run(s) under a cancelled context:\n%s", args[0], snap.Completed, stdout.String())
		}
	}
}
