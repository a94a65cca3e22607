// Command wtcp is the one front end of the reproduction. Every way to
// drive the simulator is a subcommand of it:
//
//	wtcp sim -scheme ebsn -packet 1536 -bad 4s -reps 5   # one scenario
//	wtcp figures -fig all -reps 10                       # Figures 7-11 and the side studies
//	wtcp trace -scheme ebsn                              # Figures 3-5
//	wtcp report -reps 10 > REPLICATION.md                # every claim, checked
//	wtcp advise -query 2.5s                              # the §4.1 packet-size table
//	wtcp fleet run -campaign c.json -ledger sweep.json   # a sharded campaign
//	wtcp serve -data /var/lib/wtcpd                      # the resident service
//
// `wtcp -h` lists them all, `wtcp <subcommand> -h` lists its flags. The
// engine-backed subcommands (sim, figures, report, advise) share one set
// of execution flags, declared once in executionFlags, and every
// subcommand takes -cpuprofile/-memprofile.
//
// SIGINT and SIGTERM cancel the one context every subcommand runs under:
// a sweep stops at the next simulation boundary with its checkpointed
// points saved, and serve drains. The exit status is 0 on success, 1 on
// an error, and 2 when report or repro finds a result that does not
// reproduce.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"wtcp/internal/experiment"
	"wtcp/internal/prof"
)

// command is one row of the subcommand table. flags declares the
// subcommand's own flags on the set the dispatcher made for it and
// returns its body; exec names the shared execution flags it also takes.
type command struct {
	name    string
	summary string
	exec    execScope
	flags   func(fs *flag.FlagSet) body
}

// body runs a parsed subcommand, writing only to the stdout and stderr it
// is given. opt carries the execution flags (zero without them).
type body func(ctx context.Context, opt experiment.Options, stdout, stderr io.Writer) error

// errNotReproduced is returned by report and repro after they have
// printed a verdict that something did not reproduce: exit status 2.
var errNotReproduced = errors.New("not reproduced")

var commands = []command{
	{"sim", "run one scenario (flags or a JSON scenario file) and print its metrics", budgetExec, simFlags},
	{"figures", "regenerate the paper's figures and side studies as tables or CSV", fullExec, figuresFlags},
	{"trace", "plot the packet traces of Figures 3-5 or the window evolution", noExec, traceFlags},
	{"report", "run the replication suite and print the markdown report", fullExec, reportFlags},
	{"advise", "calibrate the §4.1 packet-size advisory table, or ask a server", fullExec, adviseFlags},
	{"repro", "replay, and optionally shrink, a captured failure bundle", noExec, reproFlags},
	{"conformance", "diff the canonical scenarios against the golden traces", noExec, conformanceFlags},
	{"bench record", "store `go test -bench` output as a benchmark baseline", noExec, benchRecordFlags},
	{"bench compare", "fail on a slowdown or allocation rise against a baseline", noExec, benchCompareFlags},
	{"bench ab", "judge alternating base/change runs of an end-to-end workload", noExec, benchABFlags},
	{"fleet run", "run a sharded campaign: a coordinator and N worker processes", noExec, fleetRunFlags},
	{"fleet coordinate", "serve a campaign's coordinator for remote workers", noExec, fleetCoordinateFlags},
	{"fleet worker", "join a coordinator and run its work units", noExec, fleetWorkerFlags},
	{"serve", "serve the simulator over HTTP (the wtcpd service)", noExec, serveFlags},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the one exit path: it dispatches args under the signal context
// and turns the outcome into the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	name, err := dispatch(ctx, args, stdout, stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errNotReproduced):
		return 2
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(stderr, "%s: interrupted; checkpointed/settled points are saved, rerun to resume\n", name)
	default:
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	return 1
}

// dispatch finds the subcommand args names, parses the rest of its
// command line — its own flags, the execution flags it takes and the
// profiling flags every subcommand has — and runs it. It returns the
// name errors are reported under.
func dispatch(ctx context.Context, args []string, stdout, stderr io.Writer) (string, error) {
	if len(args) > 0 && slices.Contains([]string{"-h", "-help", "--help", "help"}, args[0]) {
		fmt.Fprint(stdout, usage())
		return "wtcp", nil
	}
	c, rest, err := lookup(args)
	if err != nil {
		return "wtcp", err
	}
	name := "wtcp " + c.name
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	options := executionFlags(fs, c.exec)
	runBody := c.flags(fs)
	if err := fs.Parse(rest); err != nil {
		return name, err
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return name, err
	}
	opt, stopExec := options(stderr)
	err = runBody(ctx, opt, stdout, stderr)
	stopExec()
	if perr := stopProf(); perr != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, perr)
	}
	return name, err
}

// lookup matches the leading words of args against the table.
func lookup(args []string) (command, []string, error) {
	for _, c := range commands {
		words := strings.Fields(c.name)
		if len(args) >= len(words) && slices.Equal(args[:len(words)], words) {
			return c, args[len(words):], nil
		}
	}
	if len(args) == 0 {
		return command{}, nil, errors.New("no subcommand given\n" + usage())
	}
	name := args[0]
	if len(args) > 1 && slices.ContainsFunc(commands, func(c command) bool { return strings.HasPrefix(c.name, name+" ") }) {
		name += " " + args[1]
	}
	return command{}, nil, fmt.Errorf("unknown subcommand %q\n%s", name, usage())
}

func usage() string {
	var b strings.Builder
	b.WriteString("usage: wtcp <subcommand> [flags]   (wtcp <subcommand> -h lists its flags)\n\nsubcommands:\n")
	for _, c := range commands {
		fmt.Fprintf(&b, "  %-17s %s\n", c.name, c.summary)
	}
	return b.String()
}

// execScope selects the shared execution flags a subcommand takes.
type execScope int

const (
	noExec     execScope = iota
	budgetExec           // the per-run budget and the heartbeat: -max-events … -status
	fullExec             // all twelve: also -reps -seed -checkpoint -workers -repro -supervise
)

// executionFlags declares the execution flags scope selects on fs — the
// one declaration of each — and returns the function that, once fs is
// parsed, turns them into the experiment.Options an engine-backed
// subcommand runs under (its Supervisor included) and starts the
// heartbeat. The stop it returns ends the heartbeat and lists on stderr
// the points supervision quarantined.
func executionFlags(fs *flag.FlagSet, scope execScope) func(stderr io.Writer) (experiment.Options, func()) {
	if scope == noExec {
		return func(io.Writer) (experiment.Options, func()) { return experiment.Options{}, func() {} }
	}
	var opt experiment.Options
	supervise := false
	if scope == fullExec {
		fs.IntVar(&opt.Replications, "reps", 5, "replications per data point")
		fs.Int64Var(&opt.BaseSeed, "seed", 0, "base seed offset")
		fs.StringVar(&opt.Checkpoint, "checkpoint", "", "checkpoint file: finished points are saved here and an interrupted run resumes from them")
		fs.IntVar(&opt.Workers, "workers", 1, "replications run concurrently per point (results are identical for any value)")
		fs.StringVar(&opt.ReproDir, "repro", "", "directory to capture failed replications as bundles for wtcp repro")
		fs.BoolVar(&supervise, "supervise", true, "quarantine pathological points (listed on stderr) instead of failing the whole run")
	}
	fs.Int64Var(&opt.RunBudget.MaxEvents, "max-events", 0, "per-run fired-event budget (0 = engine default, negative = unlimited)")
	fs.DurationVar(&opt.RunBudget.MaxVirtual, "max-vtime", 0, "per-run virtual-time budget (0 = none)")
	fs.DurationVar(&opt.RunBudget.WallClock, "run-deadline", 0, "per-run wall-clock deadline (0 = engine default, negative = unlimited)")
	fs.Int64Var(&opt.RunBudget.MaxHeapBytes, "max-heap", 0, "per-run heap ceiling in bytes (0 = none)")
	fs.BoolVar(&opt.NoRunBudget, "no-run-budget", false, "disable the default per-run event and wall-clock ceilings")
	status := fs.String("status", "", "write a health heartbeat JSON to this file while running (poll it, or send SIGUSR1 for a stderr dump)")
	return func(stderr io.Writer) (experiment.Options, func()) {
		opt := opt
		if supervise {
			opt.Supervise = experiment.NewSupervisor()
		}
		opt.Health = experiment.NewHealth()
		stopBeat := opt.Health.Heartbeat(*status, stderr)
		return opt, func() {
			stopBeat()
			for _, q := range opt.Supervise.Quarantined() {
				fmt.Fprintf(stderr, "quarantined: %s [%s after %d attempt(s)]: %s\n", q.Key, q.Class, q.Attempts, q.Reason)
			}
		}
	}
}
