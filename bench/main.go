// Command bench is the repository's measurement spine: one harness that
// times the stack from outside — core.Run, the experiment engine, the
// fleet, wtcpd, the cell engine and every hot module's public API — and
// checks that what it timed produced correct output. BENCHMARK.json at
// the repository root names its workloads and metrics; README.md in this
// directory is the dictionary.
//
//	go run ./bench -workload all                 every workload, untraced then traced
//	go run ./bench -workload wan_ladder -trace 0 end-to-end metrics of one workload
//	go run ./bench -workload wan_ladder -trace 1 per-layer metrics + bench/out/trace-wan_ladder.json
//	go run ./bench -compare A/set.json B/set.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// sections maps a workload name to the code that runs it.
var sections = map[string]func(params, *report) (sectionResult, error){
	"wan_ladder": runWAN,
	"lan_zoo":    runZoo,
	"cell_10k":   runCell,
	"serve_mix":  runMix,
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	smoke    bool
	repeat   int
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: wan_ladder, lan_zoo, cell_10k, serve_mix, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: feeds BaseSeed, scenario seeds and the request-mix generator, nothing else")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed batches of a run measure")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: shorter traced run, per-layer metrics and a span file")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for run records, span files and scratch data")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes: exercises every workload's wiring and output checks, timing is meaningless")
	fs.IntVar(&o.repeat, "repeat", 1, "with -workload all: how many complete sets of runs to make")
	compare := fs.Bool("compare", false, "compare two run sets: bench -compare A/set.json B/set.json")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as generated from the harness's tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printManifest:
		stdout.Write(marshalIndent(buildManifest()))
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two set files")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case o.trace != 0 && o.trace != 1, o.seconds <= 0, o.repeat < 1:
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1, -seconds and -repeat are positive")
		return 2
	case o.workload == "all":
		return runAll(o, stdout, stderr)
	}
	if _, ok := sections[o.workload]; !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v, or all)\n", o.workload, workloadNames())
		return 2
	}
	rep, err := runOne(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	line := rep.contract(defs)
	rec := rep.record(o.workload, o.seed, o.seconds, o.trace == 1)
	if err := os.WriteFile(recordPath(o), marshalIndent(rec), 0o644); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
	}
	fmt.Fprintf(stdout, "# %s seed %d: an op is a %s; op_ms_p50 is the latency of %s\n", o.workload, o.seed, opOf[o.workload][0], opOf[o.workload][1])
	rep.print(stdout)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return line.exitCode()
}

func recordPath(o options) string {
	return filepath.Join(o.out, fmt.Sprintf("run-%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
}

// runOne runs one workload in this process: untraced for the end-to-end
// figures, or traced for the per-layer ones.
func runOne(o options, stderr io.Writer) (*report, error) {
	tmp := filepath.Join(o.out, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	rep := newReport()
	ticks := readCPUTicks()
	p := params{seed: o.seed, seconds: o.seconds, smoke: o.smoke, tmp: tmp, cal: &calibrator{}}
	if o.trace == 0 {
		res, err := sections[o.workload](p, rep)
		if err != nil {
			return nil, err
		}
		endToEndReadings(rep, res, p.cal)
	} else if err := runTraced(o, p, rep, stderr); err != nil {
		return nil, err
	}
	rep.set("bench.steal_share", stealShare(ticks, readCPUTicks()), "ratio", "share of CPU ticks stolen by other guests during the run (/proc/stat)")
	rep.set("bench.fail_share", rep.failShare(), "ratio", "failed / attempted operations and output checks")
	return rep, nil
}

// runTraced is the traced run. It is shorter (a quarter of the time),
// wraps every call into a layer in a harness-side span, and reports the
// per-layer figures: the direct probes, the named workload's section
// traced at a quarter of its time, and — because every run must print
// every per-layer name — the other three sections at smoke size. The
// authoritative reading of a section's figures is the run of the
// workload that owns them.
func runTraced(o options, p params, rep *report, stderr io.Writer) error {
	p.seconds, p.quick = o.seconds/4, true

	// The same quarter-length section untraced, for the tracing overhead.
	cal := p.cal
	p.cal = nil
	plain, err := sections[o.workload](p, newReport())
	if err != nil {
		return fmt.Errorf("untraced reference: %w", err)
	}

	p.tr = newTracer()
	if err := runProbes(p, rep); err != nil {
		return err
	}
	var traced sectionResult
	for _, w := range workloadNames() {
		q := p
		q.smoke = p.smoke || w != o.workload
		if w == o.workload {
			q.cal = cal
		}
		res, err := sections[w](q, rep)
		if err != nil {
			return fmt.Errorf("%s section: %w", w, err)
		}
		if w == o.workload {
			traced = res
		}
	}
	endToEndReadings(rep, traced, cal)
	on, off := quietRate(traced.batches), quietRate(plain.batches)
	if on > 0 {
		rep.set("bench.trace_overhead_share", off/on-1, "ratio",
			fmt.Sprintf("untraced %.6g ops/s over traced %.6g ops/s, minus 1 (quarter-length runs)", off, on))
	}
	path := filepath.Join(o.out, "trace-"+o.workload+".json")
	if err := p.tr.write(path, o.workload, o.seed); err != nil {
		fmt.Fprintf(stderr, "bench: span file: %v\n", err)
	}
	for _, lt := range selfTimes(p.tr.snapshot()) {
		rep.set("span."+lt.Name, lt.SelfMs, "ms", fmt.Sprintf("self time over %d spans; %.1f ms in span", lt.Count, lt.SpanMs))
	}
	return nil
}

// runAll runs every workload in its own process (so peak_rss_mb is per
// workload), untraced then traced, -repeat times over, and writes the
// collected records to <out>/set.json for -compare.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var set runSet
	status := 0
	for r := 0; r < o.repeat; r++ {
		for _, w := range workloadNames() {
			for trace := 0; trace <= 1; trace++ {
				child := o
				child.workload, child.trace = w, trace
				args := []string{"-workload", w, "-seed", strconv.FormatInt(o.seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", o.out}
				if o.smoke {
					args = append(args, "-smoke")
				}
				fmt.Fprintf(stdout, "== %s  trace=%d  set %d/%d\n", w, trace, r+1, o.repeat)
				cmd := exec.Command(exe, args...)
				cmd.Stdout, cmd.Stderr = stdout, stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(stderr, "bench: %s trace=%d: %v\n", w, trace, err)
					status = 1
				}
				data, err := os.ReadFile(recordPath(child))
				if err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					status = 1
					continue
				}
				var rec runRecord
				if err := json.Unmarshal(data, &rec); err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", recordPath(child), err)
					status = 1
					continue
				}
				set.Runs = append(set.Runs, rec)
			}
		}
	}
	path := filepath.Join(o.out, "set.json")
	if err := os.WriteFile(path, marshalIndent(set), 0o644); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "== end-to-end summary (%s)\n", path)
	for _, rec := range set.Runs {
		if rec.Trace {
			continue
		}
		fmt.Fprintf(stdout, "%-11s", rec.Workload)
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "  %s %.6g %s", d.Name, rec.Readings[d.Name].Value, d.Unit)
		}
		fmt.Fprintf(stdout, "  failed %d/%d\n", rec.Failed, rec.Attempted)
	}
	return status
}
