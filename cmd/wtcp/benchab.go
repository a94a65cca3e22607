package main

// wtcp bench ab judges alternating runs of one end-to-end benchmark
// workload made in two trees (`make bench-ab` makes them): for each
// end-to-end metric BENCHMARK.json declares, each side's median and
// quartiles, how many pairs the change won, and whether a claimed gain
// holds — the change wins at least 9 pairs in 10 and its median beats
// the base's by more than the base's interquartile range.
//
//	wtcp bench ab -manifest BENCHMARK.json -base base.jsonl -change change.jsonl
//
// Each input line is the JSON contract line a run of ./bench prints
// last; line i of both files is pair i.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"

	"wtcp/internal/experiment"
)

// abMetric is one end-to-end metric of the manifest.
type abMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// abRun is one run's reading of each end-to-end metric, in manifest
// order.
type abRun []float64

func benchABFlags(fs *flag.FlagSet) body {
	var (
		manifest = fs.String("manifest", "BENCHMARK.json", "benchmark manifest naming the end-to-end metrics")
		base     = fs.String("base", "", "contract lines of the base tree's runs, one per line (required)")
		change   = fs.String("change", "", "contract lines of the change's runs, one per line (required)")
	)
	return func(_ context.Context, _ experiment.Options, stdout, _ io.Writer) error {
		if *base == "" || *change == "" {
			return errors.New("-base and -change are required")
		}
		var m struct {
			EndToEnd []abMetric `json:"end_to_end"`
		}
		data, err := os.ReadFile(*manifest)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("%s: %w", *manifest, err)
		}
		a, err := readRuns(*base, m.EndToEnd)
		if err != nil {
			return err
		}
		b, err := readRuns(*change, m.EndToEnd)
		if err != nil {
			return err
		}
		if len(a) != len(b) || len(a) == 0 {
			return fmt.Errorf("%d base runs and %d change runs: want the same number of pairs, at least one", len(a), len(b))
		}
		return writeAB(stdout, m.EndToEnd, a, b)
	}
}

// readRuns reads the runs of one side from path.
func readRuns(path string, metrics []abMetric) ([]abRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeRuns(path, data, metrics)
}

// decodeRuns reads one contract line per run and refuses, naming the file
// and line, a run that is not a clean reading of every metric: one its
// harness marked incorrect, one with failed operations, or one missing a
// metric — which a comparison would otherwise score as a zero.
func decodeRuns(path string, data []byte, metrics []abMetric) ([]abRun, error) {
	var runs []abRun
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var r struct {
			Correct bool  `json:"correct"`
			Failed  int64 `json:"failed"`
			Metrics map[string]struct {
				Value *float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		if !r.Correct || r.Failed != 0 {
			return nil, fmt.Errorf("%s:%d: run is not clean (correct %v, %d failed operations)", path, i+1, r.Correct, r.Failed)
		}
		run := make(abRun, len(metrics))
		for j, m := range metrics {
			v := r.Metrics[m.Name].Value
			if v == nil {
				return nil, fmt.Errorf("%s:%d: no %s reading", path, i+1, m.Name)
			}
			run[j] = *v
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// writeAB prints the verdict table and then every pair.
func writeAB(w io.Writer, metrics []abMetric, a, b []abRun) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tbetter\tbase median [q1, q3]\tchange median [q1, q3]\tchange\tpairs won\tclaim rule\n")
	for j, m := range metrics {
		va, vb := values(a, j), values(b, j)
		qa, qb := quartiles(va), quartiles(vb)
		won := 0
		for i := range va {
			if better(m, vb[i], va[i]) {
				won++
			}
		}
		// The rule a claimed gain must meet: the change wins 9 pairs in
		// 10 and its median beats the base's by more than the base's
		// interquartile range.
		holds := won*10 >= 9*len(va) && better(m, qb[1], qa[1]) && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0]
		rule := "does not hold"
		if holds {
			rule = "holds"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f %%\t%d/%d\t%s\n",
			m.Name, m.Better, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*(qb[1]-qa[1])/qa[1], won, len(va), rule)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprint(tw, "pair\tfirst")
	for _, m := range metrics {
		fmt.Fprintf(tw, "\t%s base -> change", m.Name)
	}
	fmt.Fprintln(tw)
	for i := range a {
		first := "base"
		if i%2 == 1 {
			first = "change"
		}
		fmt.Fprintf(tw, "%d\t%s", i+1, first)
		for j := range metrics {
			fmt.Fprintf(tw, "\t%.4g -> %.4g", a[i][j], b[i][j])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// values returns every run's reading of metric j.
func values(runs []abRun, j int) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r[j]
	}
	return out
}

// better reports whether x reads better than y under m's direction.
func better(m abMetric, x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

// quartiles returns the first quartile, median and third quartile of v
// (linear interpolation between order statistics).
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}
