package main

import (
	"strings"
	"testing"
)

func TestAdvisorTable(t *testing.T) {
	out, _, err := wtcp("advise", "-reps", "1")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "| mean bad period | good packet size | throughput (Kbps) |") {
		t.Errorf("table missing:\n%s", out)
	}
}

func TestAdvisorQueryAndCSV(t *testing.T) {
	out, _, err := wtcp("advise", "-reps", "1", "-csv", "-query", "2s")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "mean_bad_sec,packet_size_bytes,throughput_kbps") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "recommended packet size for 2s fades") {
		t.Errorf("query answer missing:\n%s", out)
	}
}

func TestAdvisorRejectsBadFlags(t *testing.T) {
	if _, _, err := wtcp("advise", "-bogus"); err == nil {
		t.Error("unknown flag accepted")
	}
}
