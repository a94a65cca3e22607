package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: wtcp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimKernel-8     	26153130	        86.81 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimTimerReset-8 	198126300	        12.16 ns/op	       0 B/op	       0 allocs/op
BenchmarkWANRun-8        	    1586	   1575676 ns/op	  479734 B/op	    4053 allocs/op
PASS
ok  	wtcp	11.662s
`

func TestParseBench(t *testing.T) {
	results, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(results))
	}
	k := results[0]
	if k.Name != "BenchmarkSimKernel" || k.NsPerOp != 86.81 || k.AllocsPerOp != 0 {
		t.Fatalf("unexpected first result: %+v", k)
	}
	w := results[2]
	if w.Name != "BenchmarkWANRun" || w.AllocsPerOp != 4053 || w.BytesPerOp != 479734 {
		t.Fatalf("unexpected WANRun result: %+v", w)
	}
}

func TestParseBenchKeepsBestOfRepeats(t *testing.T) {
	repeated := "BenchmarkSimKernel-8 100 90.0 ns/op\t1 B/op\t1 allocs/op\n" +
		"BenchmarkSimKernel-8 100 80.0 ns/op\t0 B/op\t0 allocs/op\n"
	results, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("parsed %d results, want 1", len(results))
	}
	if results[0].NsPerOp != 80.0 {
		t.Fatalf("ns/op = %v, want min of repeats (80)", results[0].NsPerOp)
	}
	if results[0].AllocsPerOp != 1 {
		t.Fatalf("allocs/op = %v, want max of repeats (1)", results[0].AllocsPerOp)
	}
}

func TestCompareFailsOnSlowdown(t *testing.T) {
	base := map[string]Result{
		"BenchmarkSimKernel": {Name: "BenchmarkSimKernel", NsPerOp: 100},
	}
	fresh := []Result{{Name: "BenchmarkSimKernel", NsPerOp: 130}}
	err := compareResults(&strings.Builder{}, base, fresh, nil, 0.20)
	if err == nil {
		t.Fatal("30% slowdown with 20% threshold did not fail")
	}
}

func TestCompareFailsOnAllocIncrease(t *testing.T) {
	base := map[string]Result{
		"BenchmarkSimKernel": {Name: "BenchmarkSimKernel", NsPerOp: 100, AllocsPerOp: 0},
	}
	fresh := []Result{{Name: "BenchmarkSimKernel", NsPerOp: 100, AllocsPerOp: 1}}
	err := compareResults(&strings.Builder{}, base, fresh, nil, 0.20)
	if err == nil {
		t.Fatal("allocs/op increase did not fail even within the ns/op threshold")
	}
}

// TestRecordStoresFilterAndCompareUsesIt pins the multi-baseline
// contract: a baseline recorded with -filter stores it, and a later
// compare applies the stored one — so BENCH_scale.json gates
// ^BenchmarkCell while BENCH_kernel.json gates ^BenchmarkSim, with no
// flags repeated at compare time. A baseline recorded without a filter
// gates every benchmark.
func TestRecordStoresFilterAndCompareUsesIt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	in := filepath.Join(dir, "bench.txt")
	writeBench := func(content string) {
		t.Helper()
		if err := os.WriteFile(in, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeBench("BenchmarkCellSend-8 1000 30.0 ns/op\t0 B/op\t0 allocs/op\n" +
		"BenchmarkSimKernel-8 1000 80.0 ns/op\t0 B/op\t0 allocs/op\n")
	if _, _, err := wtcp("bench", "record", "-file", path, "-filter", "^BenchmarkCell",
		"-note", "test baseline", "-in", in); err != nil {
		t.Fatalf("record: %v", err)
	}
	b, m, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Filter != "^BenchmarkCell" || b.Note != "test baseline" {
		t.Fatalf("stored baseline %+v", b)
	}
	if len(m) != 2 {
		t.Fatalf("stored %d results, want 2", len(m))
	}

	// A fresh run where only the out-of-filter benchmark regressed must
	// pass: the stored filter excludes it.
	writeBench("BenchmarkCellSend-8 1000 31.0 ns/op\t0 B/op\t0 allocs/op\n" +
		"BenchmarkSimKernel-8 1000 9999.0 ns/op\t0 B/op\t0 allocs/op\n")
	if _, _, err := wtcp("bench", "compare", "-file", path, "-in", in); err != nil {
		t.Fatalf("compare with stored filter: %v", err)
	}
	// Recorded without -filter, the baseline gates the regressed one too.
	unfiltered := filepath.Join(dir, "BENCH_all.json")
	if _, _, err := wtcp("bench", "record", "-file", unfiltered, "-in", in); err != nil {
		t.Fatalf("record: %v", err)
	}
	writeBench("BenchmarkCellSend-8 1000 31.0 ns/op\t0 B/op\t0 allocs/op\n" +
		"BenchmarkSimKernel-8 1000 99999.0 ns/op\t0 B/op\t0 allocs/op\n")
	if _, _, err := wtcp("bench", "compare", "-file", unfiltered, "-in", in); err == nil {
		t.Fatal("an unfiltered baseline missed the regression")
	}
}

func TestComparePassesWithinThreshold(t *testing.T) {
	base := map[string]Result{
		"BenchmarkSimKernel":     {Name: "BenchmarkSimKernel", NsPerOp: 100},
		"BenchmarkSimTimerReset": {Name: "BenchmarkSimTimerReset", NsPerOp: 10},
	}
	fresh := []Result{
		{Name: "BenchmarkSimKernel", NsPerOp: 110},
		{Name: "BenchmarkSimTimerReset", NsPerOp: 9},
		{Name: "BenchmarkWANRun", NsPerOp: 999999}, // filtered out
	}
	filter := regexp.MustCompile("^BenchmarkSim")
	if err := compareResults(&strings.Builder{}, base, fresh, filter, 0.20); err != nil {
		t.Fatalf("within-threshold comparison failed: %v", err)
	}
}

// TestBaselineRefusals pins each way a baseline file is refused: a row
// that compare would misread — a second row under one name (the first
// would be dropped), a misspelt key (read as zero), a non-positive ns/op
// (a zero baseline turns every delta into +Inf or NaN, and NaN passes
// the threshold) — or bytes after the baseline.
func TestBaselineRefusals(t *testing.T) {
	row := func(name, ns string) string { return `{"name":"` + name + `","iterations":1,"ns_per_op":` + ns + `}` }
	file := func(rows ...string) string { return `{"note":"n","results":[` + strings.Join(rows, ",") + `]}` }
	for _, tc := range []struct {
		name, data string
		want       error // nil: a JSON decoding error, named by its text
		text       string
	}{
		{"duplicate", file(row("BenchmarkA", "1"), row("BenchmarkA", "2")), errBaselineDuplicate, ""},
		{"unknown key", file(`{"name":"BenchmarkA","ns_per_ops":5}`), nil, `unknown field "ns_per_ops"`},
		{"unknown top-level key", `{"note":"n","result":[]}`, nil, `unknown field "result"`},
		{"zero ns", file(row("BenchmarkA", "0")), errBaselineNsPerOp, ""},
		{"negative ns", file(row("BenchmarkA", "-3")), errBaselineNsPerOp, ""},
		{"missing ns", file(`{"name":"BenchmarkA"}`), errBaselineNsPerOp, ""},
		{"unnamed", file(row("", "1")), errBaselineUnnamed, ""},
		{"negative allocs", file(`{"name":"BenchmarkA","ns_per_op":1,"allocs_per_op":-1}`), errBaselineNegative, ""},
		{"trailing value", file(row("BenchmarkA", "1")) + `{}`, errBaselineTrailing, ""},
		{"trailing garbage", file(row("BenchmarkA", "1")) + `x`, errBaselineTrailing, ""},
	} {
		_, _, err := decodeBaseline("BENCH_x.json", []byte(tc.data))
		switch {
		case err == nil:
			t.Errorf("%s: loaded", tc.name)
		case !strings.HasPrefix(err.Error(), "BENCH_x.json: "):
			t.Errorf("%s: refusal %q does not name the file", tc.name, err)
		case tc.want != nil && !errors.Is(err, tc.want):
			t.Errorf("%s: refused with %v, want %v", tc.name, err, tc.want)
		case tc.want == nil && !strings.Contains(err.Error(), tc.text):
			t.Errorf("%s: refused with %v, want %q", tc.name, err, tc.text)
		}
	}
	if _, m, err := decodeBaseline("BENCH_x.json", []byte(file(row("BenchmarkA", "1"), row("BenchmarkB", "2"))+"\n")); err != nil || len(m) != 2 {
		t.Fatalf("a well-formed baseline: %v, %d rows", err, len(m))
	}
}

// TestCommittedBaselinesLoad: both baselines the Makefile compares
// against pass the decoder, each row once.
func TestCommittedBaselinesLoad(t *testing.T) {
	for _, name := range []string{"BENCH_kernel.json", "BENCH_scale.json"} {
		b, m, err := loadBaseline(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Results) == 0 || len(m) != len(b.Results) {
			t.Fatalf("%s: %d rows, %d by name", name, len(b.Results), len(m))
		}
	}
}

// FuzzBenchBaseline feeds the baseline decoder arbitrary bytes: it must
// refuse or load, never panic; a refusal names the file; a load keeps
// every row under its name, and re-encodes, as record writes, to bytes
// that load again and re-encode to themselves.
func FuzzBenchBaseline(f *testing.F) {
	for _, name := range []string{"BENCH_kernel.json", "BENCH_scale.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"note":"","results":[{"name":"BenchmarkA","iterations":1,"ns_per_op":1},{"name":"BenchmarkA","iterations":1,"ns_per_op":2}]}`))
	f.Add([]byte(`{"note":"","results":[{"name":"BenchmarkA","ns_per_ops":1}]}`))
	f.Add([]byte(`{"note":"","results":null} {}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		const path = "BENCH_fuzz.json"
		b, m, err := decodeBaseline(path, data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), path+": ") {
				t.Errorf("refusal %q does not name the file", err)
			}
			return
		}
		if len(m) != len(b.Results) {
			t.Fatalf("%d rows loaded as %d names", len(b.Results), len(m))
		}
		for _, r := range b.Results {
			if m[r.Name] != r {
				t.Fatalf("row %+v indexed as %+v", r, m[r.Name])
			}
		}
		first, err := encodeBaseline(b)
		if err != nil {
			t.Fatal(err)
		}
		again, _, err := decodeBaseline(path, first)
		if err != nil {
			t.Fatalf("the encoding of a loaded baseline is refused: %v\n%s", err, first)
		}
		second, err := encodeBaseline(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not a fixed point:\n%s\n---\n%s", first, second)
		}
	})
}
