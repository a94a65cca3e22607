package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// reading is one named number, as measured.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note carries what is printed beside the value: batch count,
	// median and quartiles for a quiet-decile figure, sample counts
	// for a percentile, the paper's reference for a simulated result.
	Note string `json:"note,omitempty"`
}

// report collects everything one run measures and checks. Sections add
// readings under fixed names; main decides which of them form the
// contract line (end-to-end names untraced, per-layer names traced).
type report struct {
	mu        sync.Mutex
	readings  map[string]reading
	attempted int64
	failed    int64
	failures  []string
}

func newReport() *report { return &report{readings: map[string]reading{}} }

func (r *report) set(name string, v float64, unit, note string) {
	r.mu.Lock()
	r.readings[name] = reading{Value: v, Unit: unit, Note: note}
	r.mu.Unlock()
}

func (r *report) get(name string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rd, ok := r.readings[name]
	return rd.Value, ok
}

// setQuiet stores the quiet-decile value of per-batch readings and
// prints the batch median and quartiles beside it.
func (r *report) setQuiet(name, unit string, better direction, batches []float64) float64 {
	v := quiet(batches, better)
	r.set(name, v, unit, quietNote(batches))
	return v
}

// quietNote is what is printed beside a quiet-decile figure.
func quietNote(batches []float64) string {
	q1, q2, q3 := quartiles(batches)
	return fmt.Sprintf("quiet decile of %d batches; p25 %.4g p50 %.4g p75 %.4g", len(batches), q1, q2, q3)
}

// setPercentile stores a pooled tail percentile only if the sample
// supports it (ten samples beyond); otherwise the reading says so.
func (r *report) setPercentile(name, unit string, samples []float64, p float64) {
	if v, ok := tailPercentile(samples, p); ok {
		r.set(name, v, unit, fmt.Sprintf("pooled over %d samples", len(samples)))
		return
	}
	r.set(name, 0, unit, fmt.Sprintf("not reported: %d samples leave fewer than 10 beyond p%g", len(samples), p*100))
}

// ops counts attempted operations.
func (r *report) ops(n int) {
	r.mu.Lock()
	r.attempted += int64(n)
	r.mu.Unlock()
}

// fail counts one failed operation or output check.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *report) counts() (attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted, r.failed
}

// failShare is failed over attempted operations.
func (r *report) failShare() float64 {
	a, f := r.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// print writes every reading as "name value unit  # note", sorted.
func (r *report) print(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.readings))
	for n := range r.readings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rd := r.readings[n]
		if rd.Note != "" {
			fmt.Fprintf(w, "%-38s %14.6g %-8s # %s\n", n, rd.Value, rd.Unit, rd.Note)
		} else {
			fmt.Fprintf(w, "%-38s %14.6g %s\n", n, rd.Value, rd.Unit)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", f)
	}
}

// contractValue is one metric of the contract line.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output: exactly these keys.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

// exitCode is the command's: non-zero on any failed operation or check.
func (l contractLine) exitCode() int {
	if !l.Correct {
		return 1
	}
	return 0
}

// contract selects the named metrics. A missing name is a harness bug
// and counts as a failed check, so it cannot pass silently.
func (r *report) contract(defs []metricDef) contractLine {
	for _, d := range defs {
		if _, ok := r.get(d.Name); !ok {
			r.fail("metric %s was not measured", d.Name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	line := contractLine{Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]contractValue{}}
	line.Correct = r.failed == 0
	for _, d := range defs {
		line.Metrics[d.Name] = contractValue{Value: r.readings[d.Name].Value, Unit: d.Unit}
	}
	return line
}

// runRecord is what -out writes per run and what a -compare set holds.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Readings  map[string]reading `json:"readings"`
}

func (r *report) record(workload string, seed int64, seconds float64, trace bool) runRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := runRecord{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Failures: append([]string(nil), r.failures...), Readings: map[string]reading{}}
	for n, rd := range r.readings {
		rec.Readings[n] = rd
	}
	return rec
}

// runSet is the file -compare reads: every run of one or more complete
// passes over the workloads.
type runSet struct {
	Runs []runRecord `json:"runs"`
}

func marshalIndent(v any) []byte {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		panic(fmt.Sprintf("bench: encode %T: %v", v, err)) // plain structs of numbers and strings
	}
	return append(data, '\n')
}
