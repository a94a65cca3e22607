package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
