package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"wtcp/internal/bs"
	"wtcp/internal/experiment"
)

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

// figuresFlags declares wtcp figures, which regenerates the paper's
// evaluation figures as terminal tables or CSV:
//
//	wtcp figures -fig 7           # basic TCP throughput vs packet size
//	wtcp figures -fig 8 -csv      # EBSN sweep, CSV to stdout
//	wtcp figures -fig all -reps 5 # everything the paper reports
//
// Every replicated figure and study (all but the single-run traces 3-5)
// runs on the experiment engine, so the execution flags apply to each of
// them: with -checkpoint every finished point is saved, an interrupted
// run resumes from the saved points with byte-identical output, and
// -repro captures failed replications for wtcp repro.
func figuresFlags(fs *flag.FlagSet) body {
	var (
		fig = fs.String("fig", "all", "figure to regenerate: "+figureNames())
		csv = fs.Bool("csv", false, "emit CSV instead of tables")
		out = fs.String("out", "", "directory to write per-figure CSV files into (implies CSV data)")
	)
	return func(ctx context.Context, opt experiment.Options, stdout, stderr io.Writer) error {
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
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
				fmt.Fprintf(stderr, "wrote %s\n", path)
			}
			if *csv {
				fmt.Fprint(stdout, csvBody)
			} else {
				fmt.Fprintln(stdout, strings.TrimRight(table, "\n"))
				fmt.Fprintln(stdout)
			}
		}
		if !did {
			return fmt.Errorf("unknown figure %q (expect %s)", *fig, figureNames())
		}
		return nil
	}
}
