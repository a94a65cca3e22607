// Command wtcp-figures regenerates the paper's evaluation figures as
// terminal tables or CSV.
//
//	wtcp-figures -fig 7           # basic TCP throughput vs packet size
//	wtcp-figures -fig 8 -csv      # EBSN sweep, CSV to stdout
//	wtcp-figures -fig all -reps 5 # everything the paper reports
//
// Every replicated figure and study (all but the single-run traces 3-5)
// runs on the experiment engine, so the execution flags apply to each of
// them. Long campaigns can checkpoint: with -checkpoint, every finished
// point is saved (atomic write-rename), SIGINT/SIGTERM stop the run
// cleanly at the next simulation boundary, and rerunning the same
// command resumes from the saved points with byte-identical output.
// Failed replications can be captured as repro bundles (-repro) for
// wtcp-repro to replay and shrink.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/experiment"
	"wtcp/internal/prof"
	"wtcp/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "wtcp-figures: interrupted; checkpointed points are saved, rerun to resume")
		} else {
			fmt.Fprintln(os.Stderr, "wtcp-figures:", err)
		}
		os.Exit(1)
	}
}

// figure is one row of the -fig table: the names that select it, the
// CSV file it writes under -out (none for the trace figures) and how to
// produce its two renderings.
type figure struct {
	names []string
	file  string
	run   func(ctx context.Context, opt experiment.Options) (csv, table string, err error)
}

// sweep is the row of a replicated study: run it, render both forms.
func sweep[P any](names []string, file, title string,
	run func(context.Context, experiment.Options) ([]P, error),
	csv func([]P) string, table func(string, []P) string) figure {
	return figure{names: names, file: file, run: func(ctx context.Context, opt experiment.Options) (string, string, error) {
		points, err := run(ctx, opt)
		if err != nil {
			return "", "", err
		}
		return csv(points), table(title, points), nil
	}}
}

// defaultAxes runs a side study on its default grid.
func defaultAxes[A, P any](study func(context.Context, experiment.Options, A) ([]P, error)) func(context.Context, experiment.Options) ([]P, error) {
	return func(ctx context.Context, opt experiment.Options) ([]P, error) {
		var axes A
		return study(ctx, opt, axes)
	}
}

// traceFigure is the row of one deterministic-channel packet trace
// (Figures 3-5): a single run, so no replication options apply.
func traceFigure(name string, scheme bs.Scheme) figure {
	return figure{names: []string{name}, run: func(context.Context, experiment.Options) (string, string, error) {
		r, err := experiment.TraceFigure(scheme, 60*time.Second)
		if err != nil {
			return "", "", err
		}
		head := fmt.Sprintf("=== Figure %s: packet trace, %s, deterministic channel (good 10s / bad 4s) ===\n", name, scheme)
		return head + r.Trace.CSV(),
			head + r.Trace.RenderASCII(100, 30, 60*time.Second) + fmt.Sprintf(
				"source timeouts: %d, source retransmissions: %d, EBSN resets: %d\n",
				r.Summary.Timeouts, r.Sender.RetransSegments, r.Summary.EBSNResets), nil
	}}
}

// figures is everything -fig can regenerate, in the order -fig all
// prints it.
var figures = []figure{
	traceFigure("3", bs.Basic),
	traceFigure("4", bs.LocalRecovery),
	traceFigure("5", bs.EBSN),
	sweep([]string{"7"}, "fig7.csv",
		"=== Figure 7: Basic TCP (wide-area) — throughput (Kbps) vs packet size, mean good period 10s ===",
		experiment.Fig7, experiment.ThroughputCSV, experiment.RenderThroughputTable),
	sweep([]string{"8"}, "fig8.csv",
		"=== Figure 8: EBSN (wide-area) — throughput (Kbps) vs packet size, mean good period 10s ===",
		experiment.Fig8, experiment.ThroughputCSV, experiment.RenderThroughputTable),
	sweep([]string{"9"}, "fig9.csv",
		"=== Figure 9: Basic TCP vs EBSN (wide-area) — data retransmitted, 100KB file ===",
		experiment.Fig9, experiment.RetransCSV, experiment.RenderRetransTable),
	sweep([]string{"10", "11"}, "fig10_11.csv",
		"=== Figures 10 & 11: Basic TCP vs EBSN (local-area) — throughput and data retransmitted vs mean bad period, 4MB file, mean good period 4s ===",
		experiment.LANStudy, experiment.LANCSV, experiment.RenderLANTable),
	sweep([]string{"csdp"}, "csdp.csv",
		"=== Related work [Bhagwat 95]: FIFO vs round-robin vs CSDP, 4 connections sharing the radio ===",
		defaultAxes(experiment.CSDPStudy), experiment.CSDPCSV, experiment.RenderCSDPTable),
	sweep([]string{"handoff"}, "handoff.csv",
		"=== Related work [Caceres & Iftode 94]: plain TCP vs fast-retransmit-on-handoff ===",
		defaultAxes(experiment.HandoffStudy), experiment.HandoffCSV, experiment.RenderHandoffTable),
	sweep([]string{"severity"}, "severity.csv",
		"=== Paper conjecture (§1/§6): EBSN improvement grows as the link gets lossier ===",
		defaultAxes(experiment.SeverityStudy), experiment.SeverityCSV, experiment.RenderSeverityTable),
	sweep([]string{"congestion"}, "congestion.csv",
		"=== Future work (paper §6): EBSN vs basic TCP under wired cross-traffic, bad=2s ===",
		defaultAxes(experiment.CongestionStudy), experiment.CongestionCSV, experiment.RenderCongestionTable),
	sweep([]string{"zoo"}, "zoo.csv",
		"=== Protocol zoo: sender variant x base-station scheme on one seeded WAN channel, bad=2s, oracle armed ===",
		defaultAxes(experiment.ZooStudy), experiment.ZooCSV, experiment.RenderZooTable),
}

// figureNames lists what -fig accepts, for the usage text and the
// unknown-figure error.
func figureNames() string {
	var names []string
	for _, f := range figures {
		names = append(names, f.names...)
	}
	return strings.Join(append(names, "all"), "|")
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("wtcp-figures", flag.ContinueOnError)
	var (
		fig        = fs.String("fig", "all", "figure to regenerate: "+figureNames())
		reps       = fs.Int("reps", 5, "replications per data point")
		csv        = fs.Bool("csv", false, "emit CSV instead of tables")
		out        = fs.String("out", "", "directory to write per-figure CSV files into (implies CSV data)")
		seed       = fs.Int64("seed", 0, "base seed offset")
		checkpoint = fs.String("checkpoint", "", "checkpoint file: finished points of every replicated figure and study are saved here and an interrupted run resumes from them")
		workers    = fs.Int("workers", 1, "replications run concurrently per point (results are identical for any value)")
		reproDir   = fs.String("repro", "", "directory to capture failed replications as wtcp-repro bundles")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")

		supervise   = fs.Bool("supervise", true, "quarantine pathological points (reported on stderr) instead of failing the whole figure")
		maxEvents   = fs.Int64("max-events", 0, "per-run fired-event budget (0 = engine default, negative = unlimited)")
		maxVTime    = fs.Duration("max-vtime", 0, "per-run virtual-time budget (0 = none)")
		runDeadline = fs.Duration("run-deadline", 0, "per-run wall-clock deadline (0 = engine default, negative = unlimited)")
		maxHeap     = fs.Int64("max-heap", 0, "per-run heap ceiling in bytes (0 = none)")
		noRunBudget = fs.Bool("no-run-budget", false, "disable the default per-run event and wall-clock ceilings")
		statusPath  = fs.String("status", "", "write a health heartbeat JSON to this file while sweeping (poll it, or send SIGUSR1 for a stderr dump)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "wtcp-figures:", err)
		}
	}()
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}
	var sup *experiment.Supervisor
	if *supervise {
		sup = experiment.NewSupervisor()
	}
	health := experiment.NewHealth()
	defer health.Heartbeat(*statusPath, os.Stderr)()
	defer func() {
		for _, q := range sup.Quarantined() {
			fmt.Fprintf(os.Stderr, "quarantined: %s [%s after %d attempt(s)]: %s\n",
				q.Key, q.Class, q.Attempts, q.Reason)
		}
	}()
	opt := experiment.Options{
		Replications: *reps,
		BaseSeed:     *seed,
		Checkpoint:   *checkpoint,
		Workers:      *workers,
		ReproDir:     *reproDir,
		Supervise:    sup,
		RunBudget: sim.Budget{MaxEvents: *maxEvents, MaxVirtual: *maxVTime,
			WallClock: *runDeadline, MaxHeapBytes: *maxHeap},
		NoRunBudget: *noRunBudget,
		Health:      health,
	}
	did := false
	for _, f := range figures {
		if *fig != "all" && !slices.Contains(f.names, *fig) {
			continue
		}
		did = true
		csvBody, table, err := f.run(ctx, opt)
		if err != nil {
			return err
		}
		if *out != "" && f.file != "" {
			path := filepath.Join(*out, f.file)
			if err := os.WriteFile(path, []byte(csvBody), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		if *csv {
			fmt.Print(csvBody)
		} else {
			fmt.Println(strings.TrimRight(table, "\n"))
			fmt.Println()
		}
	}
	if !did {
		return fmt.Errorf("unknown figure %q (expect %s)", *fig, figureNames())
	}
	return nil
}
