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
	"bufio"
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

// abRun is the contract line of one run.
type abRun struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

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
		a, err := readRuns(*base)
		if err != nil {
			return err
		}
		b, err := readRuns(*change)
		if err != nil {
			return err
		}
		if len(a) != len(b) || len(a) == 0 {
			return fmt.Errorf("%d base runs and %d change runs: want the same number of pairs, at least one", len(a), len(b))
		}
		return writeAB(stdout, m.EndToEnd, a, b)
	}
}

// readRuns reads one contract line per run.
func readRuns(path string) ([]abRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []abRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var r abRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: run %d: %w", path, len(runs)+1, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// writeAB prints the verdict table and then every pair.
func writeAB(w io.Writer, metrics []abMetric, a, b []abRun) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tbetter\tbase median [q1, q3]\tchange median [q1, q3]\tchange\tpairs won\tclaim rule\n")
	for _, m := range metrics {
		va, vb := values(a, m.Name), values(b, m.Name)
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
	fmt.Fprint(tw, "\tfailed base/change\n")
	for i := range a {
		first := "base"
		if i%2 == 1 {
			first = "change"
		}
		fmt.Fprintf(tw, "%d\t%s", i+1, first)
		for _, m := range metrics {
			fmt.Fprintf(tw, "\t%.4g -> %.4g", a[i].Metrics[m.Name].Value, b[i].Metrics[m.Name].Value)
		}
		fmt.Fprintf(tw, "\t%d/%d\n", a[i].Failed, b[i].Failed)
	}
	return tw.Flush()
}

func values(runs []abRun, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[name].Value
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
