package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReportQuick(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// One -checkpoint path serves every study of the report, whatever
	// options each runs under.
	ck := filepath.Join(t.TempDir(), "report.json")
	code, err := run(context.Background(), []string{"-quick", "-reps", "2", "-checkpoint", ck}, f)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0 (all claims reproduced)", code)
	}
	md, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "# Replication report") {
		t.Error("report header missing")
	}
	if !strings.Contains(string(md), "All checked claims reproduced") {
		t.Error("all-clear marker missing")
	}
}

func TestReportRejectsBadFlags(t *testing.T) {
	if _, err := run(context.Background(), []string{"-nonsense"}, os.Stdout); err == nil {
		t.Error("unknown flag accepted")
	}
}
