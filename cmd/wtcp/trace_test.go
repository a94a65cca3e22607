package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceOutputMatchesGoldens pins every byte wtcp trace prints in each
// of its modes: the scatter, its CSV, the window plot and its CSV for one
// scheme that times out and one that does not, and the side-by-side
// comparison.
func TestTraceOutputMatchesGoldens(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"basic", []string{"-scheme", "basic", "-width", "40", "-height", "10"}},
		{"basic-csv", []string{"-scheme", "basic", "-csv"}},
		{"basic-cwnd", []string{"-scheme", "basic", "-cwnd", "-width", "40", "-height", "8"}},
		{"basic-cwnd-csv", []string{"-scheme", "basic", "-cwnd", "-csv"}},
		{"ebsn", []string{"-scheme", "ebsn", "-width", "40", "-height", "10"}},
		{"ebsn-csv", []string{"-scheme", "ebsn", "-csv"}},
		{"ebsn-cwnd", []string{"-scheme", "ebsn", "-cwnd", "-width", "40", "-height", "8"}},
		{"ebsn-cwnd-csv", []string{"-scheme", "ebsn", "-cwnd", "-csv"}},
		{"compare", []string{"-compare", "-width", "80", "-height", "10"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "trace", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			out, errOut, err := wtcp(append([]string{"trace"}, c.args...)...)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if out != string(want) || errOut != "" {
				t.Errorf("wtcp trace %s:\nstdout:\n%s\nstderr:\n%s\nwant stdout:\n%s", strings.Join(c.args, " "), out, errOut, want)
			}
		})
	}
}

func TestTraceASCII(t *testing.T) {
	out, _, err := wtcp("trace", "-scheme", "basic", "-width", "60", "-height", "15")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"packet trace: basic", "packet number mod 90", "source timeouts"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%.400s", want, out)
		}
	}
}

func TestTraceCSVMode(t *testing.T) {
	out, _, err := wtcp("trace", "-scheme", "ebsn", "-csv")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.HasPrefix(out, "time_sec,packet_mod_90,kind") {
		t.Errorf("CSV output malformed:\n%.200s", out)
	}
}

func TestTraceRejectsBogusScheme(t *testing.T) {
	if _, _, err := wtcp("trace", "-scheme", "bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestTraceCompareMode(t *testing.T) {
	out, _, err := wtcp("trace", "-compare", "-width", "80", "-height", "12")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "Fig 3: basic TCP") || !strings.Contains(out, "Fig 5: EBSN (0 timeouts)") {
		t.Errorf("comparison output malformed:\n%.300s", out)
	}
}
