package main

import (
	"strings"
	"testing"
)

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
