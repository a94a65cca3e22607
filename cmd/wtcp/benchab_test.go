package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestBenchABRule checks the claim rule on synthetic pairs: a change
// that wins 9 of 10 pairs by more than the base's spread holds, one that
// wins 8 does not, and a lower-is-better metric reads the other way up.
func TestBenchABRule(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "manifest.json")
	os.WriteFile(manifest, []byte(`{"end_to_end":[`+
		`{"name":"setup_s","unit":"s","better":"lower","bound":0.25},`+
		`{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.25}]}`), 0o644)
	write := func(name string, setup, ops []float64) string {
		var b strings.Builder
		for i := range setup {
			fmt.Fprintf(&b, `{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":%g,"unit":"s"},"ops_per_s":{"value":%g,"unit":"1/s"}}}`+"\n", setup[i], ops[i])
		}
		path := filepath.Join(dir, name)
		os.WriteFile(path, []byte(b.String()), 0o644)
		return path
	}
	base := write("base.jsonl",
		[]float64{0.26, 0.27, 0.25, 0.28, 0.26, 0.27, 0.26, 0.25, 0.27, 0.26},
		[]float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100})
	change := write("change.jsonl",
		// setup_s: 9 of 10 pairs lower by far more than the base's IQR.
		[]float64{0.21, 0.22, 0.20, 0.22, 0.21, 0.22, 0.21, 0.26, 0.22, 0.21},
		// ops_per_s: 8 of 10 pairs higher.
		[]float64{120, 121, 119, 120, 122, 118, 120, 121, 90, 90})
	var out bytes.Buffer
	if err := run([]string{"bench", "ab", "-manifest", manifest, "-base", base, "-change", change}, &out, &out); err != 0 {
		t.Fatalf("exit %d: %s", err, out.String())
	}
	lines := strings.Split(out.String(), "\n")
	row := func(metric string) string {
		for _, l := range lines {
			if strings.HasPrefix(l, metric+" ") {
				return l
			}
		}
		t.Fatalf("no row for %s in:\n%s", metric, out.String())
		return ""
	}
	if r := row("setup_s"); !strings.Contains(r, "9/10") || !strings.HasSuffix(strings.TrimSpace(r), "holds") || strings.Contains(r, "does not") {
		t.Errorf("setup_s row %q, want 9/10 and the rule holding", r)
	}
	if r := row("ops_per_s"); !strings.Contains(r, "8/10") || !strings.Contains(r, "does not hold") {
		t.Errorf("ops_per_s row %q, want 8/10 and the rule not holding", r)
	}
	if !strings.Contains(out.String(), "0.26 -> 0.21") {
		t.Errorf("pair listing missing the first pair:\n%s", out.String())
	}
}

// TestBenchABRefusesUncleanRuns pins the refusals: a change run without
// a metric the manifest names would read as 0 (and win or lose every
// pair by 100 %), and a run its harness marked incorrect or that failed
// operations is no reading at all. Each is refused by file, line and
// cause.
func TestBenchABRefusesUncleanRuns(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "manifest.json")
	os.WriteFile(manifest, []byte(`{"end_to_end":[`+
		`{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.25},`+
		`{"name":"peak_rss_mb","unit":"MB","better":"lower","bound":0.2}]}`), 0o644)
	const clean = `{"correct":true,"failed":0,"metrics":{"ops_per_s":{"value":10},"peak_rss_mb":{"value":50}}}`
	base := filepath.Join(dir, "base.jsonl")
	os.WriteFile(base, []byte(clean+"\n"+clean+"\n"), 0o644)
	for _, tc := range []struct{ name, second, want string }{
		{"missing", `{"correct":true,"failed":0,"metrics":{"ops_per_s":{"value":11}}}`, ":2: no peak_rss_mb reading"},
		{"no-value", `{"correct":true,"failed":0,"metrics":{"ops_per_s":{"value":11},"peak_rss_mb":{"unit":"MB"}}}`, ":2: no peak_rss_mb reading"},
		{"incorrect", `{"correct":false,"failed":0,"metrics":{"ops_per_s":{"value":11},"peak_rss_mb":{"value":40}}}`, ":2: run is not clean (correct false, 0 failed operations)"},
		{"failed", `{"correct":true,"failed":3,"metrics":{"ops_per_s":{"value":11},"peak_rss_mb":{"value":40}}}`, ":2: run is not clean (correct true, 3 failed operations)"},
		{"garbled", `{"correct":true,`, ":2: unexpected end of JSON input"},
	} {
		change := filepath.Join(dir, tc.name+".jsonl")
		os.WriteFile(change, []byte(clean+"\n"+tc.second+"\n"), 0o644)
		var out bytes.Buffer
		if code := run([]string{"bench", "ab", "-manifest", manifest, "-base", base, "-change", change}, &out, &out); code == 0 {
			t.Errorf("%s: accepted:\n%s", tc.name, out.String())
			continue
		}
		if !strings.Contains(out.String(), change+tc.want) {
			t.Errorf("%s: refusal %q, want it to contain %q", tc.name, out.String(), change+tc.want)
		}
		if strings.Contains(out.String(), "holds") {
			t.Errorf("%s: a verdict was printed:\n%s", tc.name, out.String())
		}
	}
}

// FuzzBenchABRuns feeds the run decoder arbitrary bytes, under
// FuzzLedgerLoad's contract: it must refuse or load, never panic; a
// refusal names the file; a load keeps one run per line with every
// metric read, and re-encodes to bytes that load again and re-encode to
// themselves.
func FuzzBenchABRuns(f *testing.F) {
	metrics := []abMetric{{Name: "ops_per_s", Better: "higher"}, {Name: "setup_s", Better: "lower"}}
	f.Add([]byte(`{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.26,"unit":"s"},"ops_per_s":{"value":100,"unit":"1/s"}}}` + "\n"))
	f.Add([]byte(`{"correct":true,"failed":0,"metrics":{"setup_s":{"value":1},"ops_per_s":{"value":2}}}` + "\n" + `{"correct":true,"metrics":{"setup_s":{"value":-0},"ops_per_s":{"value":1e300}}}`))
	f.Add([]byte(`{"correct":true,"failed":0,"metrics":{"ops_per_s":{"value":2}}}`))
	f.Add([]byte(`{"correct":false,"failed":1,"metrics":null}` + "\n\n"))
	encode := func(runs []abRun) []byte {
		var b bytes.Buffer
		for _, r := range runs {
			b.WriteString(`{"correct":true,"failed":0,"metrics":{`)
			for j, m := range metrics {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `%q:{"value":%s}`, m.Name, strconv.FormatFloat(r[j], 'g', -1, 64))
			}
			b.WriteString("}}\n")
		}
		return b.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const path = "runs-fuzz.jsonl"
		runs, err := decodeRuns(path, data, metrics)
		if err != nil {
			if !strings.HasPrefix(err.Error(), path+":") {
				t.Errorf("refusal %q does not name the file", err)
			}
			return
		}
		if lines := bytes.Count(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) + 1; len(runs) != lines {
			t.Fatalf("%d lines loaded as %d runs", lines, len(runs))
		}
		for i, r := range runs {
			if len(r) != len(metrics) {
				t.Fatalf("run %d holds %d readings of %d metrics", i+1, len(r), len(metrics))
			}
		}
		first := encode(runs)
		again, err := decodeRuns(path, first, metrics)
		if err != nil {
			t.Fatalf("the encoding of loaded runs is refused: %v\n%s", err, first)
		}
		if second := encode(again); !bytes.Equal(first, second) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", first, second)
		}
	})
}
