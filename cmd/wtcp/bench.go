package main

// wtcp bench turns `go test -bench` output into a committed
// machine-readable baseline and compares fresh runs against it, so CI can
// fail on kernel performance regressions without external tooling:
//
//	wtcp bench record -file BENCH_kernel.json -filter '^BenchmarkSim' -in bench.txt
//	wtcp bench compare -file BENCH_kernel.json -in bench.txt
//
// The repository keeps one baseline per benchmark family —
// BENCH_kernel.json for the kernel micro-benchmarks, BENCH_scale.json for
// the cell-scale engine — and each stores the filter it was recorded
// with, so a compare applies the right benchmark subset without the
// caller repeating it.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"wtcp/internal/experiment"
)

// Result is one benchmark's recorded performance.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Baseline is the file format of BENCH_kernel.json / BENCH_scale.json.
type Baseline struct {
	// Note documents how to regenerate the file.
	Note string `json:"note"`
	// Filter is the regexp of the benchmarks this baseline gates; empty
	// gates every benchmark.
	Filter  string   `json:"filter,omitempty"`
	Results []Result `json:"results"`
}

// benchRecordFlags declares wtcp bench record: parse benchmark lines and
// write a baseline of per-benchmark ns/op, B/op and allocs/op.
func benchRecordFlags(fs *flag.FlagSet) body {
	var (
		file   = fs.String("file", "", "baseline file to write (required)")
		in     = fs.String("in", "", "go test -bench -benchmem output to read (required)")
		filter = fs.String("filter", "", "regexp of the benchmarks the baseline gates, stored in it (empty = all)")
		note   = fs.String("note", "kernel benchmark baseline; regenerate with `make bench-baseline`", "regeneration note stored in the baseline")
	)
	return func(_ context.Context, _ experiment.Options, stdout, _ io.Writer) error {
		results, err := readBench(*file, *in)
		if err != nil {
			return err
		}
		data, err := encodeBaseline(Baseline{Note: *note, Filter: *filter, Results: results})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*file, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %d benchmarks to %s\n", len(results), *file)
		return nil
	}
}

// benchCompareFlags declares wtcp bench compare: parse a fresh run and
// fail if any benchmark the baseline's filter selects slowed down by more
// than the threshold fraction in ns/op, or allocated more objects per op
// than the baseline (allocation regressions on the kernel hot path are
// bugs at any size, not just at 20%).
func benchCompareFlags(fs *flag.FlagSet) body {
	var (
		file      = fs.String("file", "", "baseline file to compare against (required)")
		in        = fs.String("in", "", "go test -bench -benchmem output to read (required)")
		threshold = fs.Float64("threshold", 0.20, "allowed ns/op regression fraction")
	)
	return func(_ context.Context, _ experiment.Options, stdout, _ io.Writer) error {
		results, err := readBench(*file, *in)
		if err != nil {
			return err
		}
		baseline, base, err := loadBaseline(*file)
		if err != nil {
			return err
		}
		var re *regexp.Regexp
		if baseline.Filter != "" {
			if re, err = regexp.Compile(baseline.Filter); err != nil {
				return fmt.Errorf("%s: bad filter %q: %w", *file, baseline.Filter, err)
			}
		}
		return compareResults(stdout, base, results, re, *threshold)
	}
}

// readBench parses the benchmark lines of the -in file; both subcommands
// require -file and -in.
func readBench(file, in string) ([]Result, error) {
	if file == "" || in == "" {
		return nil, errors.New("-file and -in are required")
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	results, err := parseBench(f)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, errors.New("no benchmark lines found in input")
	}
	return results, nil
}

// encodeBaseline lays a baseline out as record writes it.
func encodeBaseline(b Baseline) ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// The ways a baseline file is refused besides malformed JSON (an unknown
// key among them: a misspelt field would otherwise read as zero).
var (
	errBaselineTrailing  = errors.New("trailing data after the baseline")
	errBaselineUnnamed   = errors.New("a row has no name")
	errBaselineDuplicate = errors.New("two rows share a name")
	errBaselineNsPerOp   = errors.New("ns_per_op is not positive")
	errBaselineNegative  = errors.New("a per-op reading is negative")
)

func loadBaseline(path string) (Baseline, map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, nil, err
	}
	return decodeBaseline(path, data)
}

// decodeBaseline decodes a baseline file's bytes and indexes its rows by
// name, refusing anything compare could not read faithfully: every row
// must be there once, with a positive ns/op to divide by.
func decodeBaseline(path string, data []byte) (Baseline, map[string]Result, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Baseline
	if err := dec.Decode(&b); err != nil {
		return Baseline{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Baseline{}, nil, fmt.Errorf("%s: %w", path, errBaselineTrailing)
	}
	m := make(map[string]Result, len(b.Results))
	for i, r := range b.Results {
		var bad error
		switch _, dup := m[r.Name]; {
		case r.Name == "":
			bad = errBaselineUnnamed
		case dup:
			bad = errBaselineDuplicate
		case !(r.NsPerOp > 0):
			bad = errBaselineNsPerOp
		case r.BytesPerOp < 0 || r.AllocsPerOp < 0:
			bad = errBaselineNegative
		}
		if bad != nil {
			return Baseline{}, nil, fmt.Errorf("%s: row %d %q: %w", path, i, r.Name, bad)
		}
		m[r.Name] = r
	}
	return b, m, nil
}

// benchLine matches `go test -bench -benchmem` output, e.g.
//
//	BenchmarkSimKernel-8   26153130   86.81 ns/op   0 B/op   0 allocs/op
//
// Custom metrics between ns/op and B/op are tolerated and ignored.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

func parseBench(r io.Reader) ([]Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	byName := make(map[string][]Result)
	var order []string
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, err
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, err
		}
		res := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
		for _, field := range strings.Split(strings.TrimSpace(m[4]), "\t") {
			field = strings.TrimSpace(field)
			switch {
			case strings.HasSuffix(field, " B/op"):
				res.BytesPerOp, _ = strconv.ParseFloat(strings.TrimSuffix(field, " B/op"), 64)
			case strings.HasSuffix(field, " allocs/op"):
				res.AllocsPerOp, _ = strconv.ParseFloat(strings.TrimSuffix(field, " allocs/op"), 64)
			}
		}
		if _, seen := byName[res.Name]; !seen {
			order = append(order, res.Name)
		}
		byName[res.Name] = append(byName[res.Name], res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// `-count=N` runs produce repeated lines; keep the minimum ns/op per
	// name (the least-disturbed run) and the max allocs/op (pessimistic).
	var out []Result
	for _, name := range order {
		runs := byName[name]
		agg := runs[0]
		for _, r := range runs[1:] {
			if r.NsPerOp < agg.NsPerOp {
				agg.NsPerOp = r.NsPerOp
				agg.Iterations = r.Iterations
			}
			if r.AllocsPerOp > agg.AllocsPerOp {
				agg.AllocsPerOp = r.AllocsPerOp
			}
			if r.BytesPerOp > agg.BytesPerOp {
				agg.BytesPerOp = r.BytesPerOp
			}
		}
		out = append(out, agg)
	}
	return out, nil
}

func compareResults(w io.Writer, base map[string]Result, fresh []Result, filter *regexp.Regexp, threshold float64) error {
	var failures []string
	var compared int
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Name < fresh[j].Name })
	for _, r := range fresh {
		if filter != nil && !filter.MatchString(r.Name) {
			continue
		}
		b, ok := base[r.Name]
		if !ok {
			fmt.Fprintf(w, "NEW     %-28s %12.2f ns/op (no baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		compared++
		delta := (r.NsPerOp - b.NsPerOp) / b.NsPerOp
		status := "ok"
		if delta > threshold {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"%s: %.2f ns/op vs baseline %.2f (%+.1f%% > %.0f%% allowed)",
				r.Name, r.NsPerOp, b.NsPerOp, 100*delta, 100*threshold))
		}
		if r.AllocsPerOp > b.AllocsPerOp {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f allocs/op vs baseline %.0f (any increase fails)",
				r.Name, r.AllocsPerOp, b.AllocsPerOp))
		}
		fmt.Fprintf(w, "%-7s %-28s %12.2f ns/op  baseline %12.2f  (%+.1f%%)  %.0f allocs/op\n",
			status, r.Name, r.NsPerOp, b.NsPerOp, 100*delta, r.AllocsPerOp)
	}
	if compared == 0 {
		return errors.New("no benchmarks matched the baseline and filter; is the input a -bench run?")
	}
	if len(failures) > 0 {
		fmt.Fprintln(w)
		for _, f := range failures {
			fmt.Fprintln(w, "regression:", f)
		}
		return fmt.Errorf("%d benchmark regression(s)", len(failures))
	}
	fmt.Fprintf(w, "all %d compared benchmarks within %.0f%% of baseline\n", compared, 100*threshold)
	return nil
}
