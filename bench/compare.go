package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict of one (metric, workload) row.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// compareRow is one end-to-end metric on one workload across two sets.
type compareRow struct {
	metric, workload string
	a, b             []float64 // the sets' untraced runs
	medA, medB       float64
	bound            float64
	worsening        float64 // share of A's median by which B is worse (negative: better)
	spread           float64 // wider of the two sets' own interquartile spreads
	verdict          verdict
}

// judge applies a metric's direction and bound to two sets of runs of
// one workload. B is worse when its median is worse than A's by more
// than the bound. When either set's own run-to-run spread is wider than
// the bound the row cannot be resolved — unless every run of B reads
// better than every run of A (ok), or every run of B reads worse than
// every run of A and the medians differ by more than the bound (worse).
func judge(d metricDef, a, b []float64) compareRow {
	row := compareRow{metric: d.Name, bound: d.Bound, a: a, b: b, medA: median(a), medB: median(b)}
	if row.medA != 0 {
		row.worsening = (row.medB - row.medA) / row.medA
		if d.dir() == higher {
			row.worsening = -row.worsening
		}
	}
	row.spread = max(spreadShare(a), spreadShare(b))
	better := func(x, y float64) bool { // x better than y
		if d.dir() == higher {
			return x > y
		}
		return x < y
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	switch {
	case row.spread <= d.Bound && row.worsening > d.Bound:
		row.verdict = verdictWorse
	case row.spread <= d.Bound:
		row.verdict = verdictOK
	case allBetter:
		row.verdict = verdictOK
	case allWorse && row.worsening > d.Bound:
		row.verdict = verdictWorse
	default:
		row.verdict = verdictUnresolved
	}
	return row
}

func loadSet(path string) (runSet, error) {
	var set runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return set, fmt.Errorf("%s holds no runs", path)
	}
	return set, nil
}

// values collects one metric's readings over a set's untraced runs of a
// workload.
func (s runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if rd, ok := r.Readings[metric]; ok {
			out = append(out, rd.Value)
		}
	}
	return out
}

// compareRows judges every (end-to-end metric, workload) pair the two
// sets share. Runs with failed checks make the row worse outright: a
// gain does not count when more operations fail.
func compareRows(a, b runSet) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(w.Name, d.Name), b.values(w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := judge(d, va, vb)
			row.workload = w.Name
			rows = append(rows, row)
		}
	}
	return rows
}

func (s runSet) failedOps() (n int64) {
	for _, r := range s.Runs {
		n += r.Failed
	}
	return n
}

// compareSets prints one row per (metric, workload) and exits non-zero
// on any "worse".
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]runSet
	for i, path := range []string{pathA, pathB} {
		var err error
		if sets[i], err = loadSet(path); err != nil {
			fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
			return 2
		}
	}
	return printComparison(sets[0], sets[1], stdout)
}

func printComparison(a, b runSet, stdout io.Writer) int {
	rows := compareRows(a, b)
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tA median\tB median\tB worse by\tbound\tspread\truns\tverdict")
	status := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%d/%d\t%s\n",
			r.metric, r.workload, r.medA, r.medB, 100*r.worsening, 100*r.bound, 100*r.spread, len(r.a), len(r.b), r.verdict)
		if r.verdict == verdictWorse {
			status = 1
		}
	}
	tw.Flush()
	if fa, fb := a.failedOps(), b.failedOps(); fb > fa {
		fmt.Fprintf(stdout, "fail_share\tall\tfailed operations rose from %d to %d\tworse\n", fa, fb)
		status = 1
	}
	if len(rows) == 0 {
		fmt.Fprintln(stdout, "no (metric, workload) row is present in both sets")
		return 2
	}
	return status
}
